// Package logging defines the measurement log: the records honeypots emit
// for every query they receive, exactly mirroring the fields the paper
// says are saved (message type, peer address/port/name/userID/version and
// ID status, the concerned file, server identity, and timestamps), plus
// the shared-file lists retrieved from contacting peers.
//
// Records travel as in-memory values inside simulations, as JSON over
// the control plane between honeypotd and the manager, in logstore
// segments on disk, and as JSONL for humans. PeerIP never contains a raw address past the honeypot boundary:
// it carries the step-1 anonymization hash, then the step-2 coherent
// number (see package anonymize).
package logging

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/ed2k"
	"repro/internal/intern"
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
	// PeerIP is the anonymized peer identity: a step-1 hash digest (hex)
	// as written by the honeypot, rewritten to a small decimal number by
	// the manager's step-2 pass.
	PeerIP string `json:"peer_ip"`
	// PeerPort is the peer's TCP port.
	PeerPort uint16 `json:"peer_port"`
	// PeerName is the peer's self-reported client name.
	PeerName string `json:"peer_name,omitempty"`
	// UserHash is the peer's cross-session user hash (hex).
	UserHash string `json:"user_hash,omitempty"`
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
// Binary record codec.

// EncodeRecord appends r's binary encoding to dst and returns the
// extended slice. It is the canonical, stateless form of a record: the
// bytes dataset digests hash. (Logstore segments code each record against their earlier ones
// instead; see package logstore.)
func EncodeRecord(dst []byte, r Record) []byte { return appendRecord(dst, r) }

// DecodeRecord decodes one record previously encoded with EncodeRecord.
func DecodeRecord(b []byte) (Record, error) { return DecodeRecordInterned(b, nil) }

// DecodeRecordInterned is DecodeRecord with the recurring string columns
// deduplicated through pool (see DecodeRecordInto).
func DecodeRecordInterned(b []byte, pool *intern.Pool) (r Record, err error) {
	err = DecodeRecordInto(&r, b, pool)
	return r, err
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendRecord(b []byte, r Record) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Time.UnixNano()))
	b = appendString(b, r.Honeypot)
	b = append(b, byte(r.Kind))
	b = appendString(b, r.PeerIP)
	b = binary.LittleEndian.AppendUint16(b, r.PeerPort)
	b = appendString(b, r.PeerName)
	b = appendString(b, r.UserHash)
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

type recDecoder struct {
	b   []byte
	off int
	err error
}

func (d *recDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("logging: truncated %s at offset %d", what, d.off)
	}
}

func (d *recDecoder) take(n int, what string) []byte {
	if d.err != nil || d.off+n > len(d.b) {
		d.fail(what)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *recDecoder) u8(what string) byte {
	v := d.take(1, what)
	if v == nil {
		return 0
	}
	return v[0]
}

func (d *recDecoder) u16(what string) uint16 {
	v := d.take(2, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (d *recDecoder) u32(what string) uint32 {
	v := d.take(4, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (d *recDecoder) u64(what string) uint64 {
	v := d.take(8, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (d *recDecoder) str(what string) string {
	n := int(d.u32(what))
	if n > len(d.b) {
		d.fail(what)
		return ""
	}
	return string(d.take(n, what))
}

// strInto decodes a recurring string column into *dst. When the bytes
// equal what *dst already holds — the previous record of the same cursor,
// which shares honeypot, server and usually peer — the string stays and
// nothing is looked up; otherwise it comes from pool (nil: a fresh copy).
func (d *recDecoder) strInto(dst *string, what string, pool *intern.Pool) {
	n := int(d.u32(what))
	if n > len(d.b) {
		d.fail(what)
	}
	raw := d.take(n, what)
	switch {
	case string(raw) == *dst:
	case pool != nil:
		*dst = pool.Get(raw)
	default:
		*dst = string(raw)
	}
}

func (d *recDecoder) hash(what string) ed2k.Hash {
	var h ed2k.Hash
	copy(h[:], d.take(len(h), what))
	return h
}

// DecodeRecordInto is EncodeRecord's decoder (the stream codec's Reader
// runs it per frame): it overwrites every field of *r with the record
// encoded in b. The recurring string columns go through pool when it is
// non-nil — Honeypot, Server, PeerName and FileName (the honeypot's own
// name for the concerned file), one value per honeypot, server, client
// build or advertised file, and PeerIP and UserHash, one value per
// distinct peer — so a stream allocates each such string once instead
// of once per record, and a caller that decodes a stream into one Record
// skips even the lookup for a column that repeats the previous record's.
// Shared-list file names, which rarely recur, are never pooled, and
// r.Files never reuses its previous backing array: a copy of *r taken
// before the next call stays valid. On error *r holds the fields decoded
// so far, zero beyond them.
func DecodeRecordInto(r *Record, b []byte, pool *intern.Pool) error {
	d := recDecoder{b: b}
	r.Files = nil
	r.Time = time.Unix(0, int64(d.u64("time"))).UTC()
	d.strInto(&r.Honeypot, "honeypot", pool)
	r.Kind = Kind(d.u8("kind"))
	d.strInto(&r.PeerIP, "peer_ip", pool)
	r.PeerPort = d.u16("peer_port")
	d.strInto(&r.PeerName, "peer_name", pool)
	d.strInto(&r.UserHash, "user_hash", pool)
	r.HighID = d.u8("high_id") != 0
	r.ClientVersion = d.u32("client_version")
	r.FileHash = d.hash("file_hash")
	d.strInto(&r.FileName, "file_name", pool)
	d.strInto(&r.Server, "server", pool)
	nf := int(d.u32("files"))
	if nf > len(b) {
		return fmt.Errorf("logging: shared list count %d implausible", nf)
	}
	for i := 0; i < nf && d.err == nil; i++ {
		var f SharedFile
		f.Hash = d.hash("shared hash")
		f.Name = d.str("shared name")
		f.Size = int64(d.u64("shared size"))
		r.Files = append(r.Files, f)
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("logging: %d trailing bytes in record", len(b)-d.off)
	}
	return nil
}

// ---------------------------------------------------------------------------
// JSONL export.

// WriteJSONL writes records as one JSON object per line.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads records written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}

// ---------------------------------------------------------------------------
// Merging.

// Merge combines per-honeypot logs (each already in time order, as
// produced) into one log ordered by timestamp, ties broken by source
// position, then append order — the ordering contract logstore's
// Iterator streams (its sources are lexicographic shard names). A
// stable sort of the logs laid end to end gives exactly that order.
func Merge(logs ...[]Record) []Record {
	out := make([]Record, 0)
	for _, l := range logs {
		out = append(out, l...)
	}
	slices.SortStableFunc(out, func(a, b Record) int { return a.Time.Compare(b.Time) })
	return out
}
