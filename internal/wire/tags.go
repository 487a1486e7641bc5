package wire

import (
	"fmt"
)

// Tag name identifiers (the 1-byte "special" tag names of the eDonkey
// protocol).
const (
	TagName        byte = 0x01
	TagSize        byte = 0x02
	TagType        byte = 0x03
	TagFormat      byte = 0x04
	TagDescription byte = 0x0B
	TagPort        byte = 0x0F
	TagVersion     byte = 0x11
	TagFlags       byte = 0x20
	TagAvail       byte = 0x15
	TagMuleVersion byte = 0xFB
)

// Tag value types on the wire.
const (
	tagTypeString byte = 0x02
	tagTypeUint32 byte = 0x03
)

// Tag is one metadata attribute: a (name, value) pair where the value is
// either a string or a uint32. Names are usually single protocol-defined
// bytes (TagName, TagSize, ...) but free-form string names are legal.
type Tag struct {
	// ID is the 1-byte special name; used when NameStr is empty.
	ID byte
	// NameStr is the free-form name, if any.
	NameStr string
	// Str holds the value when IsString, Uint otherwise.
	Str      string
	Uint     uint32
	IsString bool
}

// StringTag builds a string-valued tag with a 1-byte name.
func StringTag(id byte, v string) Tag { return Tag{ID: id, Str: v, IsString: true} }

// UintTag builds an integer-valued tag with a 1-byte name.
func UintTag(id byte, v uint32) Tag { return Tag{ID: id, Uint: v} }

func (t Tag) String() string {
	name := t.NameStr
	if name == "" {
		name = fmt.Sprintf("0x%02X", t.ID)
	}
	if t.IsString {
		return fmt.Sprintf("%s=%q", name, t.Str)
	}
	return fmt.Sprintf("%s=%d", name, t.Uint)
}

// Tags is a tag list with lookup helpers.
type Tags []Tag

// Lookup returns the first tag with the given 1-byte name.
func (ts Tags) Lookup(id byte) (Tag, bool) {
	for _, t := range ts {
		if t.NameStr == "" && t.ID == id {
			return t, true
		}
	}
	return Tag{}, false
}

// Str returns the string value of tag id, or "".
func (ts Tags) Str(id byte) string {
	if t, ok := ts.Lookup(id); ok && t.IsString {
		return t.Str
	}
	return ""
}

// Uint returns the integer value of tag id, or 0.
func (ts Tags) Uint(id byte) uint32 {
	if t, ok := ts.Lookup(id); ok && !t.IsString {
		return t.Uint
	}
	return 0
}

func (t Tag) encode(e *encoder) {
	if t.IsString {
		e.u8(tagTypeString)
	} else {
		e.u8(tagTypeUint32)
	}
	if t.NameStr != "" {
		e.str(t.NameStr)
	} else {
		e.u16(1)
		e.u8(t.ID)
	}
	if t.IsString {
		e.str(t.Str)
	} else {
		e.u32(t.Uint)
	}
}

func decodeTag(d *decoder) Tag {
	typ := d.u8()
	nameLen := d.u16()
	var t Tag
	switch nameLen {
	case 0:
		d.fail(fmt.Errorf("wire: tag with empty name"))
	case 1:
		t.ID = d.u8()
	default:
		t.NameStr = string(d.bytes(int(nameLen)))
	}
	switch typ {
	case tagTypeString:
		t.IsString = true
		t.Str = d.str()
	case tagTypeUint32:
		t.Uint = d.u32()
	default:
		d.fail(fmt.Errorf("wire: unsupported tag type 0x%02X", typ))
	}
	return t
}

func encodeTags(e *encoder, ts Tags) {
	e.u32(uint32(len(ts)))
	for _, t := range ts {
		t.encode(e)
	}
}

const maxTags = 1 << 16 // defensive bound against hostile counts

func decodeTags(d *decoder) Tags {
	n := d.u32()
	if n > maxTags {
		d.fail(fmt.Errorf("wire: tag count %d exceeds limit", n))
		return nil
	}
	if n == 0 || d.err != nil {
		return nil
	}
	ts := make(Tags, 0, min(int(n), 16))
	for i := uint32(0); i < n && d.err == nil; i++ {
		ts = append(ts, decodeTag(d))
	}
	return ts
}
