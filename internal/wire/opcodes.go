// Package wire implements the eDonkey TCP wire protocol: frame headers,
// the tag system, and the message vocabulary exchanged between clients and
// directory servers and between pairs of clients.
//
// Layout and opcode values follow the eMule protocol specification
// (Kulbak & Bickson, 2005), reference [6] of the reproduced paper. Every
// frame is:
//
//	+----------+------------------+--------+---------+
//	| protocol | size (uint32 LE) | opcode | payload |
//	+----------+------------------+--------+---------+
//
// where size counts opcode+payload, protocol is 0xE3 for plain eDonkey
// frames and 0xD4 for zlib-compressed payloads.
//
// A message is read-only once it is sent. A sender may share one
// message between many receivers and sends (the simulated network
// delivers the sender's value itself, not a copy), so a message a
// handler receives — its fields, tags, entries and byte slices — must
// never be written; a receiver that wants to change one copies it
// first.
package wire

import "fmt"

// Protocol identifiers (first byte of every frame).
const (
	ProtoEDonkey = 0xE3 // plain eDonkey frame
	ProtoPacked  = 0xD4 // zlib-deflated payload
)

// Opcode identifies a message within a protocol space. eDonkey reuses
// opcode values between the client-server and client-client conversations
// (e.g. 0x01 is LOGIN-REQUEST on a server link and HELLO on a peer link),
// so decoding requires a Space.
type Opcode byte

// Client <-> server opcodes.
const (
	OpLoginRequest  Opcode = 0x01
	OpReject        Opcode = 0x05
	OpGetServerList Opcode = 0x14
	OpOfferFiles    Opcode = 0x15
	OpSearchRequest Opcode = 0x16
	OpDisconnect    Opcode = 0x18
	OpGetSources    Opcode = 0x19
	OpSearchResult  Opcode = 0x33
	OpServerList    Opcode = 0x32
	OpServerStatus  Opcode = 0x34
	OpCallbackReq   Opcode = 0x1C
	OpServerMessage Opcode = 0x38
	OpIDChange      Opcode = 0x40
	OpServerIdent   Opcode = 0x41
	OpFoundSources  Opcode = 0x42
)

// Client <-> client opcodes.
const (
	OpHello             Opcode = 0x01
	OpSendingPart       Opcode = 0x46
	OpRequestParts      Opcode = 0x47
	OpFileReqAnsNoFile  Opcode = 0x48
	OpEndOfDownload     Opcode = 0x49
	OpAskSharedFiles    Opcode = 0x4A
	OpAskSharedFilesAns Opcode = 0x4B
	OpHelloAnswer       Opcode = 0x4C
	OpSetReqFileID      Opcode = 0x4F
	OpFileStatus        Opcode = 0x50
	OpRequestFileName   Opcode = 0x58
	OpFileReqAnswer     Opcode = 0x59
	OpStartUploadReq    Opcode = 0x54
	OpAcceptUploadReq   Opcode = 0x55
	OpCancelTransfer    Opcode = 0x56
	OpOutOfPartRequests Opcode = 0x57
	OpQueueRank         Opcode = 0x5C
	OpChatMessage       Opcode = 0x4E
	OpChangeClientID    Opcode = 0x4D
	OpHashSetRequest    Opcode = 0x51
	OpHashSetAnswer     Opcode = 0x52
)

// Space selects which of the two opcode namespaces a link uses.
type Space int

const (
	// ServerSpace is the client<->server conversation.
	ServerSpace Space = iota
	// PeerSpace is the client<->client conversation.
	PeerSpace
)

func (s Space) String() string {
	switch s {
	case ServerSpace:
		return "server"
	case PeerSpace:
		return "peer"
	default:
		return fmt.Sprintf("space(%d)", int(s))
	}
}

// Name returns a symbolic opcode name for logging, using the paper's
// terminology (HELLO, START-UPLOAD, REQUEST-PART, ...) where applicable.
func (o Opcode) Name(s Space) string {
	if s == ServerSpace {
		switch o {
		case OpLoginRequest:
			return "LOGIN-REQUEST"
		case OpReject:
			return "REJECT"
		case OpGetServerList:
			return "GET-SERVER-LIST"
		case OpOfferFiles:
			return "OFFER-FILES"
		case OpSearchRequest:
			return "SEARCH-REQUEST"
		case OpDisconnect:
			return "DISCONNECT"
		case OpGetSources:
			return "GET-SOURCES"
		case OpSearchResult:
			return "SEARCH-RESULT"
		case OpServerList:
			return "SERVER-LIST"
		case OpServerStatus:
			return "SERVER-STATUS"
		case OpCallbackReq:
			return "CALLBACK-REQUEST"
		case OpServerMessage:
			return "SERVER-MESSAGE"
		case OpIDChange:
			return "ID-CHANGE"
		case OpServerIdent:
			return "SERVER-IDENT"
		case OpFoundSources:
			return "FOUND-SOURCES"
		}
	} else {
		switch o {
		case OpHello:
			return "HELLO"
		case OpSendingPart:
			return "SENDING-PART"
		case OpRequestParts:
			return "REQUEST-PART"
		case OpFileReqAnsNoFile:
			return "FILE-NOT-FOUND"
		case OpEndOfDownload:
			return "END-OF-DOWNLOAD"
		case OpAskSharedFiles:
			return "ASK-SHARED-FILES"
		case OpAskSharedFilesAns:
			return "ASK-SHARED-FILES-ANSWER"
		case OpHelloAnswer:
			return "HELLO-ANSWER"
		case OpSetReqFileID:
			return "SET-REQ-FILE-ID"
		case OpFileStatus:
			return "FILE-STATUS"
		case OpRequestFileName:
			return "REQUEST-FILE-NAME"
		case OpFileReqAnswer:
			return "FILE-NAME-ANSWER"
		case OpStartUploadReq:
			return "START-UPLOAD"
		case OpAcceptUploadReq:
			return "ACCEPT-UPLOAD"
		case OpCancelTransfer:
			return "CANCEL-TRANSFER"
		case OpOutOfPartRequests:
			return "OUT-OF-PART-REQUESTS"
		case OpQueueRank:
			return "QUEUE-RANK"
		case OpChatMessage:
			return "MESSAGE"
		case OpChangeClientID:
			return "CHANGE-CLIENT-ID"
		case OpHashSetRequest:
			return "HASHSET-REQUEST"
		case OpHashSetAnswer:
			return "HASHSET-ANSWER"
		}
	}
	return fmt.Sprintf("OP-0x%02X", byte(o))
}
