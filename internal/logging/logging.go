// Package logging defines the measurement log: the records honeypots emit
// for every query they receive, exactly mirroring the fields the paper
// says are saved (message type, peer address/port/name/userID/version and
// ID status, the concerned file, server identity, and timestamps), plus
// the shared-file lists retrieved from contacting peers.
//
// Records travel as in-memory values inside simulations, as JSON over
// the control plane between honeypotd and the manager, in logstore
// segments on disk, and as JSONL for humans. A record's peer identity
// is a PeerID, the step-1 anonymization hash and then the step-2
// coherent number (see package anonymize), and its user hash a
// UserHash: fixed-width values, rendered as text only at the edges
// (JSON, JSONL, the digest form). No raw address has a PeerID form, so
// none can pass the honeypot boundary.
package logging

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/ed2k"
)

// Kind is the logged message type.
type Kind uint8

// Logged message kinds. The paper's platform records HELLO, START-UPLOAD
// and REQUEST-PART, plus the retrieved shared-file lists; connection-level
// events carry operational metadata.
const (
	KindHello Kind = iota + 1
	KindStartUpload
	KindRequestPart
	KindSharedList
	KindConnect
	KindDisconnect
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindStartUpload:
		return "START-UPLOAD"
	case KindRequestPart:
		return "REQUEST-PART"
	case KindSharedList:
		return "SHARED-LIST"
	case KindConnect:
		return "CONNECT"
	case KindDisconnect:
		return "DISCONNECT"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// SharedFile is one entry of a retrieved shared-file list.
type SharedFile struct {
	Hash ed2k.Hash `json:"hash"`
	Name string    `json:"name"`
	Size int64     `json:"size"`
}

// Record is one logged query.
type Record struct {
	// Time stamps the packet's reception (virtual time in simulation).
	Time time.Time `json:"time"`
	// Honeypot identifies the collecting honeypot.
	Honeypot string `json:"honeypot"`
	// Kind is the message type.
	Kind Kind `json:"kind"`
	// PeerIP is the anonymized peer identity: a step-1 hash as written
	// by the honeypot, replaced by a small number in the manager's
	// step-2 pass; zero for records that name no peer.
	PeerIP PeerID `json:"peer_ip"`
	// PeerPort is the peer's TCP port.
	PeerPort uint16 `json:"peer_port"`
	// PeerName is the peer's self-reported client name.
	PeerName string `json:"peer_name,omitempty"`
	// UserHash is the peer's declared cross-session user hash, zero if
	// none.
	UserHash UserHash `json:"user_hash,omitzero"`
	// HighID records the peer's ID status.
	HighID bool `json:"high_id"`
	// ClientVersion is the peer's protocol version tag.
	ClientVersion uint32 `json:"client_version,omitempty"`
	// FileHash is the concerned file, zero for kinds without one.
	FileHash ed2k.Hash `json:"file_hash"`
	// FileName is the honeypot's name for the concerned file.
	FileName string `json:"file_name,omitempty"`
	// Server identifies the directory server the honeypot sat on.
	Server string `json:"server,omitempty"`
	// Files carries the shared list for KindSharedList records.
	Files []SharedFile `json:"files,omitempty"`
}

// Sink receives records as they are produced.
type Sink interface {
	Append(r Record)
}

// ---------------------------------------------------------------------------
// Record digest form.

// EncodeRecord appends r's digest form to b and returns the extended
// slice: a fixed, stateless encoding of every field, the bytes dataset
// digests hash. Nothing decodes it. Records cross the control plane as
// JSON (control.SinceResponse), and logstore segments code each record
// against their earlier ones (see package logstore).
func EncodeRecord(b []byte, r Record) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Time.UnixNano()))
	b = appendString(b, r.Honeypot)
	b = append(b, byte(r.Kind))
	b = appendText(b, r.PeerIP)
	b = binary.LittleEndian.AppendUint16(b, r.PeerPort)
	b = appendString(b, r.PeerName)
	b = appendText(b, r.UserHash)
	if r.HighID {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, r.ClientVersion)
	b = append(b, r.FileHash[:]...)
	b = appendString(b, r.FileName)
	b = appendString(b, r.Server)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Files)))
	for _, f := range r.Files {
		b = append(b, f.Hash[:]...)
		b = appendString(b, f.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Size))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendText appends t's text form as appendString appends a string.
func appendText[T interface{ AppendText([]byte) ([]byte, error) }](b []byte, t T) []byte {
	at := len(b)
	b, _ = t.AppendText(append(b, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}
