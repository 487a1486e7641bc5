package wire

import (
	"fmt"
	"iter"
	"net/netip"

	"repro/internal/ed2k"
)

// Endpoint is an (IPv4, port) pair as carried in source lists.
type Endpoint struct {
	IP   uint32 // little-endian encoded IPv4, matching clientID convention
	Port uint16
}

// EndpointFromAddrPort converts a netip.AddrPort.
func EndpointFromAddrPort(ap netip.AddrPort) (Endpoint, error) {
	id, err := ed2k.HighIDFor(ap.Addr())
	if err != nil {
		return Endpoint{}, err
	}
	return Endpoint{IP: uint32(id), Port: ap.Port()}, nil
}

// AddrPort converts back to a netip.AddrPort. Low "IPs" (callback-style
// entries) yield an invalid AddrPort.
func (ep Endpoint) AddrPort() netip.AddrPort {
	id := ed2k.ClientID(ep.IP)
	if id.Low() {
		return netip.AddrPort{}
	}
	a, err := id.Addr()
	if err != nil {
		return netip.AddrPort{}
	}
	return netip.AddrPortFrom(a, ep.Port)
}

// FileEntry describes one shared file inside OFFER-FILES, SEARCH-RESULT
// and ASK-SHARED-FILES-ANSWER messages.
type FileEntry struct {
	Hash ed2k.Hash
	// ClientID and Port identify the provider slot; servers echo these in
	// search results. Offer messages conventionally carry 0/0 (the server
	// substitutes the session's ID).
	ClientID uint32
	Port     uint16
	Tags     Tags
}

// Name returns the filename tag.
func (f FileEntry) Name() string { return f.Tags.Str(TagName) }

// Size returns the file size tag.
func (f FileEntry) Size() int64 { return int64(f.Tags.Uint(TagSize)) }

// Type returns the media type tag.
func (f FileEntry) Type() string { return f.Tags.Str(TagType) }

// NewFileEntry builds an entry with the standard name/size/type tags.
func NewFileEntry(h ed2k.Hash, name string, size int64, typ string) FileEntry {
	return FileEntry{Hash: h, Tags: AppendFileTags(make(Tags, 0, 3), name, size, typ)}
}

// AppendFileTags appends a file's standard name/size/type tags (two or
// three) to ts, so that a list of entries can share one backing array.
func AppendFileTags(ts Tags, name string, size int64, typ string) Tags {
	ts = append(ts, StringTag(TagName, name), UintTag(TagSize, uint32(size)))
	if typ != "" {
		ts = append(ts, StringTag(TagType, typ))
	}
	return ts
}

func (f FileEntry) encode(e *encoder) {
	e.hash(f.Hash)
	e.u32(f.ClientID)
	e.u16(f.Port)
	encodeTags(e, f.Tags)
}

func decodeFileEntry(d *decoder) FileEntry {
	var f FileEntry
	f.Hash = d.hash()
	f.ClientID = d.u32()
	f.Port = d.u16()
	f.Tags = decodeTags(d)
	return f
}

const maxListLen = 1 << 20 // defensive bound for any count-prefixed list

func decodeCount(d *decoder) int {
	n := d.u32()
	if n > maxListLen {
		d.fail(fmt.Errorf("wire: list length %d exceeds limit", n))
		return 0
	}
	return int(n)
}

// ---------------------------------------------------------------------------
// Client <-> server messages.

// LoginRequest is the first message a client sends to a server.
type LoginRequest struct {
	UserHash ed2k.Hash
	ClientID uint32 // 0 on first contact
	Port     uint16
	Tags     Tags // name, version, port, flags
}

func (*LoginRequest) Op() Opcode { return OpLoginRequest }

func (m *LoginRequest) encode(e *encoder) {
	e.hash(m.UserHash)
	e.u32(m.ClientID)
	e.u16(m.Port)
	encodeTags(e, m.Tags)
}

// IDChange tells the client which clientID the server assigned.
type IDChange struct {
	ClientID uint32
	Flags    uint32
}

func (*IDChange) Op() Opcode { return OpIDChange }

func (m *IDChange) encode(e *encoder) {
	e.u32(m.ClientID)
	e.u32(m.Flags)
}

// ServerMessage is free text shown to the user (MOTD, warnings).
type ServerMessage struct {
	Text string
}

func (*ServerMessage) Op() Opcode { return OpServerMessage }

func (m *ServerMessage) encode(e *encoder) { e.str(m.Text) }

// ServerStatus reports the server's user and file counts.
type ServerStatus struct {
	Users uint32
	Files uint32
}

func (*ServerStatus) Op() Opcode { return OpServerStatus }

func (m *ServerStatus) encode(e *encoder) {
	e.u32(m.Users)
	e.u32(m.Files)
}

// ServerIdent carries the server's identity and descriptive tags.
type ServerIdent struct {
	Hash ed2k.Hash
	IP   uint32
	Port uint16
	Tags Tags
}

func (*ServerIdent) Op() Opcode { return OpServerIdent }

func (m *ServerIdent) encode(e *encoder) {
	e.hash(m.Hash)
	e.u32(m.IP)
	e.u16(m.Port)
	encodeTags(e, m.Tags)
}

// OfferFiles publishes (or refreshes) the client's shared file list. An
// empty Files list is legal and serves as a keep-alive.
type OfferFiles struct {
	Files []FileEntry
}

func (*OfferFiles) Op() Opcode { return OpOfferFiles }

func (m *OfferFiles) encode(e *encoder) {
	e.u32(uint32(len(m.Files)))
	for _, f := range m.Files {
		f.encode(e)
	}
}

// GetSources asks the server for providers of a file.
type GetSources struct {
	Hash ed2k.Hash
}

func (*GetSources) Op() Opcode { return OpGetSources }

func (m *GetSources) encode(e *encoder) { e.hash(m.Hash) }

// FoundSources answers GetSources with provider endpoints.
type FoundSources struct {
	Hash    ed2k.Hash
	Sources []Endpoint
}

func (*FoundSources) Op() Opcode { return OpFoundSources }

func (m *FoundSources) encode(e *encoder) {
	e.hash(m.Hash)
	e.u8(byte(len(m.Sources)))
	for _, s := range m.Sources {
		e.u32(s.IP)
		e.u16(s.Port)
	}
}

// SearchRequest is a keyword search. Only the single-keyword form of the
// search grammar is implemented; it is the only form the measurement
// platform and the simulated peers emit.
type SearchRequest struct {
	Query string
}

func (*SearchRequest) Op() Opcode { return OpSearchRequest }

func (m *SearchRequest) encode(e *encoder) {
	e.u8(0x01) // string term
	e.str(m.Query)
}

// SearchResult returns matching files.
type SearchResult struct {
	Files []FileEntry
}

func (*SearchResult) Op() Opcode { return OpSearchResult }

func (m *SearchResult) encode(e *encoder) {
	e.u32(uint32(len(m.Files)))
	for _, f := range m.Files {
		f.encode(e)
	}
}

// GetServerList asks for other known servers.
type GetServerList struct{}

func (*GetServerList) Op() Opcode { return OpGetServerList }

func (m *GetServerList) encode(*encoder) {}

// ServerList returns other known servers.
type ServerList struct {
	Servers []Endpoint
}

func (*ServerList) Op() Opcode { return OpServerList }

func (m *ServerList) encode(e *encoder) {
	e.u8(byte(len(m.Servers)))
	for _, s := range m.Servers {
		e.u32(s.IP)
		e.u16(s.Port)
	}
}

// Reject reports a protocol violation to the sender.
type Reject struct{}

func (*Reject) Op() Opcode { return OpReject }

func (m *Reject) encode(*encoder) {}

// ---------------------------------------------------------------------------
// Client <-> client messages.

// Hello opens a peer conversation.
type Hello struct {
	UserHash   ed2k.Hash
	ClientID   uint32
	Port       uint16
	Tags       Tags // client name, version
	ServerIP   uint32
	ServerPort uint16
}

func (*Hello) Op() Opcode { return OpHello }

func (m *Hello) encode(e *encoder) {
	e.u8(16) // hash length marker, constant in the protocol
	m.encodeCommon(e)
}

func (m *Hello) encodeCommon(e *encoder) {
	e.hash(m.UserHash)
	e.u32(m.ClientID)
	e.u16(m.Port)
	encodeTags(e, m.Tags)
	e.u32(m.ServerIP)
	e.u16(m.ServerPort)
}

// HelloAnswer is the response to Hello; identical body minus the hash
// length marker.
type HelloAnswer struct {
	UserHash   ed2k.Hash
	ClientID   uint32
	Port       uint16
	Tags       Tags
	ServerIP   uint32
	ServerPort uint16
}

func (*HelloAnswer) Op() Opcode { return OpHelloAnswer }

func (m *HelloAnswer) encode(e *encoder) {
	(&Hello{m.UserHash, m.ClientID, m.Port, m.Tags, m.ServerIP, m.ServerPort}).encodeCommon(e)
}

// RequestFileName asks the provider for the name of a file.
type RequestFileName struct {
	Hash ed2k.Hash
}

func (*RequestFileName) Op() Opcode { return OpRequestFileName }

func (m *RequestFileName) encode(e *encoder) { e.hash(m.Hash) }

// FileReqAnswer returns the provider's name for the file.
type FileReqAnswer struct {
	Hash ed2k.Hash
	Name string
}

func (*FileReqAnswer) Op() Opcode { return OpFileReqAnswer }

func (m *FileReqAnswer) encode(e *encoder) {
	e.hash(m.Hash)
	e.str(m.Name)
}

// FileReqAnsNoFile tells the requester the provider does not share the file.
type FileReqAnsNoFile struct {
	Hash ed2k.Hash
}

func (*FileReqAnsNoFile) Op() Opcode { return OpFileReqAnsNoFile }

func (m *FileReqAnsNoFile) encode(e *encoder) { e.hash(m.Hash) }

// SetReqFileID declares which file subsequent transfer messages concern.
type SetReqFileID struct {
	Hash ed2k.Hash
}

func (*SetReqFileID) Op() Opcode { return OpSetReqFileID }

func (m *SetReqFileID) encode(e *encoder) { e.hash(m.Hash) }

// FileStatus reports which parts of the file the sender has.
type FileStatus struct {
	Hash   ed2k.Hash
	Bitmap []byte // ceil(parts/8) bytes, LSB-first
	Parts  uint16
}

func (*FileStatus) Op() Opcode { return OpFileStatus }

func (m *FileStatus) encode(e *encoder) {
	e.hash(m.Hash)
	e.u16(m.Parts)
	e.raw(m.Bitmap)
}

// StartUploadReq asks the provider for an upload slot for a file. This is
// the paper's START-UPLOAD message.
type StartUploadReq struct {
	Hash ed2k.Hash
}

func (*StartUploadReq) Op() Opcode { return OpStartUploadReq }

func (m *StartUploadReq) encode(e *encoder) { e.hash(m.Hash) }

// AcceptUploadReq grants the upload slot.
type AcceptUploadReq struct{}

func (*AcceptUploadReq) Op() Opcode { return OpAcceptUploadReq }

func (m *AcceptUploadReq) encode(*encoder) {}

// QueueRank reports the requester's position in the upload queue.
type QueueRank struct {
	Rank uint32
}

func (*QueueRank) Op() Opcode { return OpQueueRank }

func (m *QueueRank) encode(e *encoder) { e.u32(m.Rank) }

// RequestParts asks for up to three byte ranges of the file. This is the
// paper's REQUEST-PART message. Ranges are [Start[i], End[i]) and unused
// slots are zero.
type RequestParts struct {
	Hash  ed2k.Hash
	Start [3]uint32
	End   [3]uint32
}

func (*RequestParts) Op() Opcode { return OpRequestParts }

func (m *RequestParts) encode(e *encoder) {
	e.hash(m.Hash)
	for _, s := range m.Start {
		e.u32(s)
	}
	for _, x := range m.End {
		e.u32(x)
	}
}

// Ranges yields the non-empty ranges as (start, end) pairs, without
// building a slice.
func (m *RequestParts) Ranges() iter.Seq2[uint32, uint32] {
	return func(yield func(start, end uint32) bool) {
		for i, start := range m.Start {
			if m.End[i] > start && !yield(start, m.End[i]) {
				return
			}
		}
	}
}

// SendingPart carries one block of file content.
type SendingPart struct {
	Hash  ed2k.Hash
	Start uint32
	End   uint32
	Data  []byte
}

func (*SendingPart) Op() Opcode { return OpSendingPart }

func (m *SendingPart) encode(e *encoder) {
	e.hash(m.Hash)
	e.u32(m.Start)
	e.u32(m.End)
	e.raw(m.Data)
}

// CancelTransfer aborts the current transfer.
type CancelTransfer struct{}

func (*CancelTransfer) Op() Opcode { return OpCancelTransfer }

func (m *CancelTransfer) encode(*encoder) {}

// OutOfPartRequests tells the requester the provider's queue is full.
type OutOfPartRequests struct{}

func (*OutOfPartRequests) Op() Opcode { return OpOutOfPartRequests }

func (m *OutOfPartRequests) encode(*encoder) {}

// EndOfDownload signals the requester finished downloading the file.
type EndOfDownload struct {
	Hash ed2k.Hash
}

func (*EndOfDownload) Op() Opcode { return OpEndOfDownload }

func (m *EndOfDownload) encode(e *encoder) { e.hash(m.Hash) }

// AskSharedFiles requests the remote peer's shared file list ("browse").
type AskSharedFiles struct{}

func (*AskSharedFiles) Op() Opcode { return OpAskSharedFiles }

func (m *AskSharedFiles) encode(*encoder) {}

// AskSharedFilesAnswer returns the shared list, or an empty list when the
// user disabled browsing.
type AskSharedFilesAnswer struct {
	Files []FileEntry
}

func (*AskSharedFilesAnswer) Op() Opcode { return OpAskSharedFilesAns }

func (m *AskSharedFilesAnswer) encode(e *encoder) {
	e.u32(uint32(len(m.Files)))
	for _, f := range m.Files {
		f.encode(e)
	}
}

// HashSetRequest asks for the part-hash set of a file.
type HashSetRequest struct {
	Hash ed2k.Hash
}

func (*HashSetRequest) Op() Opcode { return OpHashSetRequest }

func (m *HashSetRequest) encode(e *encoder) { e.hash(m.Hash) }

// HashSetAnswer returns the part hashes.
type HashSetAnswer struct {
	Hash  ed2k.Hash
	Parts []ed2k.Hash
}

func (*HashSetAnswer) Op() Opcode { return OpHashSetAnswer }

func (m *HashSetAnswer) encode(e *encoder) {
	e.hash(m.Hash)
	e.u16(uint16(len(m.Parts)))
	for _, p := range m.Parts {
		e.hash(p)
	}
}

// ---------------------------------------------------------------------------
// Decoder registry.

func init() {
	registerServer(OpLoginRequest, func(d *decoder) Message {
		m := &LoginRequest{}
		m.UserHash = d.hash()
		m.ClientID = d.u32()
		m.Port = d.u16()
		m.Tags = decodeTags(d)
		return m
	})
	registerServer(OpIDChange, func(d *decoder) Message {
		return &IDChange{ClientID: d.u32(), Flags: d.u32()}
	})
	registerServer(OpServerMessage, func(d *decoder) Message {
		return &ServerMessage{Text: d.str()}
	})
	registerServer(OpServerStatus, func(d *decoder) Message {
		return &ServerStatus{Users: d.u32(), Files: d.u32()}
	})
	registerServer(OpServerIdent, func(d *decoder) Message {
		m := &ServerIdent{}
		m.Hash = d.hash()
		m.IP = d.u32()
		m.Port = d.u16()
		m.Tags = decodeTags(d)
		return m
	})
	registerServer(OpOfferFiles, func(d *decoder) Message {
		n := decodeCount(d)
		m := &OfferFiles{}
		for i := 0; i < n && d.err == nil; i++ {
			m.Files = append(m.Files, decodeFileEntry(d))
		}
		return m
	})
	registerServer(OpGetSources, func(d *decoder) Message {
		return &GetSources{Hash: d.hash()}
	})
	registerServer(OpFoundSources, func(d *decoder) Message {
		m := &FoundSources{Hash: d.hash()}
		n := int(d.u8())
		for i := 0; i < n && d.err == nil; i++ {
			m.Sources = append(m.Sources, Endpoint{IP: d.u32(), Port: d.u16()})
		}
		return m
	})
	registerServer(OpSearchRequest, func(d *decoder) Message {
		if t := d.u8(); t != 0x01 {
			d.fail(fmt.Errorf("wire: unsupported search term type 0x%02X", t))
		}
		return &SearchRequest{Query: d.str()}
	})
	registerServer(OpSearchResult, func(d *decoder) Message {
		n := decodeCount(d)
		m := &SearchResult{}
		for i := 0; i < n && d.err == nil; i++ {
			m.Files = append(m.Files, decodeFileEntry(d))
		}
		return m
	})
	registerServer(OpGetServerList, func(d *decoder) Message { return &GetServerList{} })
	registerServer(OpServerList, func(d *decoder) Message {
		m := &ServerList{}
		n := int(d.u8())
		for i := 0; i < n && d.err == nil; i++ {
			m.Servers = append(m.Servers, Endpoint{IP: d.u32(), Port: d.u16()})
		}
		return m
	})
	registerServer(OpReject, func(d *decoder) Message { return &Reject{} })

	registerPeer(OpHello, func(d *decoder) Message {
		if hl := d.u8(); hl != 16 {
			d.fail(fmt.Errorf("wire: HELLO hash length %d, want 16", hl))
		}
		m := &Hello{}
		m.UserHash = d.hash()
		m.ClientID = d.u32()
		m.Port = d.u16()
		m.Tags = decodeTags(d)
		m.ServerIP = d.u32()
		m.ServerPort = d.u16()
		return m
	})
	registerPeer(OpHelloAnswer, func(d *decoder) Message {
		m := &HelloAnswer{}
		m.UserHash = d.hash()
		m.ClientID = d.u32()
		m.Port = d.u16()
		m.Tags = decodeTags(d)
		m.ServerIP = d.u32()
		m.ServerPort = d.u16()
		return m
	})
	registerPeer(OpRequestFileName, func(d *decoder) Message {
		return &RequestFileName{Hash: d.hash()}
	})
	registerPeer(OpFileReqAnswer, func(d *decoder) Message {
		return &FileReqAnswer{Hash: d.hash(), Name: d.str()}
	})
	registerPeer(OpFileReqAnsNoFile, func(d *decoder) Message {
		return &FileReqAnsNoFile{Hash: d.hash()}
	})
	registerPeer(OpSetReqFileID, func(d *decoder) Message {
		return &SetReqFileID{Hash: d.hash()}
	})
	registerPeer(OpFileStatus, func(d *decoder) Message {
		m := &FileStatus{}
		m.Hash = d.hash()
		m.Parts = d.u16()
		m.Bitmap = d.bytes(d.remaining())
		return m
	})
	registerPeer(OpStartUploadReq, func(d *decoder) Message {
		return &StartUploadReq{Hash: d.hash()}
	})
	registerPeer(OpAcceptUploadReq, func(d *decoder) Message { return &AcceptUploadReq{} })
	registerPeer(OpQueueRank, func(d *decoder) Message { return &QueueRank{Rank: d.u32()} })
	registerPeer(OpRequestParts, func(d *decoder) Message {
		m := &RequestParts{Hash: d.hash()}
		for i := 0; i < 3; i++ {
			m.Start[i] = d.u32()
		}
		for i := 0; i < 3; i++ {
			m.End[i] = d.u32()
		}
		return m
	})
	registerPeer(OpSendingPart, func(d *decoder) Message {
		m := &SendingPart{}
		m.Hash = d.hash()
		m.Start = d.u32()
		m.End = d.u32()
		m.Data = d.bytes(d.remaining())
		return m
	})
	registerPeer(OpCancelTransfer, func(d *decoder) Message { return &CancelTransfer{} })
	registerPeer(OpOutOfPartRequests, func(d *decoder) Message { return &OutOfPartRequests{} })
	registerPeer(OpEndOfDownload, func(d *decoder) Message {
		return &EndOfDownload{Hash: d.hash()}
	})
	registerPeer(OpAskSharedFiles, func(d *decoder) Message { return &AskSharedFiles{} })
	registerPeer(OpAskSharedFilesAns, func(d *decoder) Message {
		n := decodeCount(d)
		m := &AskSharedFilesAnswer{}
		for i := 0; i < n && d.err == nil; i++ {
			m.Files = append(m.Files, decodeFileEntry(d))
		}
		return m
	})
	registerPeer(OpHashSetRequest, func(d *decoder) Message {
		return &HashSetRequest{Hash: d.hash()}
	})
	registerPeer(OpHashSetAnswer, func(d *decoder) Message {
		m := &HashSetAnswer{Hash: d.hash()}
		n := int(d.u16())
		for i := 0; i < n && d.err == nil; i++ {
			m.Parts = append(m.Parts, d.hash())
		}
		return m
	})
}
