// Package md4 implements the MD4 hash algorithm as defined in RFC 1320.
//
// MD4 is cryptographically broken and must never be used for security
// purposes. It is implemented here solely because the eDonkey network
// identifies files and users by MD4 digests (see package ed2k), and the
// Go standard library does not ship MD4.
package md4

import (
	"encoding/binary"
	"hash"
	"math/bits"
)

// Size is the size of an MD4 checksum in bytes.
const Size = 16

// BlockSize is the block size of MD4 in bytes.
const BlockSize = 64

const (
	init0 = 0x67452301
	init1 = 0xEFCDAB89
	init2 = 0x98BADCFE
	init3 = 0x10325476
)

// digest represents the partial evaluation of a checksum.
type digest struct {
	s   [4]uint32
	x   [BlockSize]byte
	nx  int
	len uint64
}

// New returns a new hash.Hash computing the MD4 checksum.
func New() hash.Hash {
	d := new(digest)
	d.Reset()
	return d
}

// Sum returns the MD4 checksum of data.
func Sum(data []byte) [Size]byte {
	d := new(digest)
	d.Reset()
	d.Write(data)
	var out [Size]byte
	d.checkSum(&out)
	return out
}

func (d *digest) Reset() {
	d.s[0] = init0
	d.s[1] = init1
	d.s[2] = init2
	d.s[3] = init3
	d.nx = 0
	d.len = 0
}

func (d *digest) Size() int { return Size }

func (d *digest) BlockSize() int { return BlockSize }

func (d *digest) Write(p []byte) (n int, err error) {
	n = len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		if d.nx == BlockSize {
			block(d, d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	if len(p) >= BlockSize {
		nn := len(p) &^ (BlockSize - 1)
		block(d, p[:nn])
		p = p[nn:]
	}
	if len(p) > 0 {
		d.nx = copy(d.x[:], p)
	}
	return n, nil
}

func (d *digest) Sum(in []byte) []byte {
	// Make a copy of d so that the caller can keep writing and summing.
	d0 := *d
	var out [Size]byte
	d0.checkSum(&out)
	return append(in, out[:]...)
}

func (d *digest) checkSum(out *[Size]byte) {
	// Padding: add 1 bit and 0 bits until 56 bytes mod 64.
	length := d.len
	var tmp [64]byte
	tmp[0] = 0x80
	if length%64 < 56 {
		d.Write(tmp[0 : 56-length%64])
	} else {
		d.Write(tmp[0 : 64+56-length%64])
	}

	// Length in bits, little-endian.
	length <<= 3
	binary.LittleEndian.PutUint64(tmp[:8], length)
	d.Write(tmp[0:8])

	if d.nx != 0 {
		panic("md4: internal error, non-empty buffer after padding")
	}

	binary.LittleEndian.PutUint32(out[0:], d.s[0])
	binary.LittleEndian.PutUint32(out[4:], d.s[1])
	binary.LittleEndian.PutUint32(out[8:], d.s[2])
	binary.LittleEndian.PutUint32(out[12:], d.s[3])
}

// block processes as many 64-byte blocks of p as are available. The three
// rounds are unrolled over sixteen local message words so every rotation
// is by a constant and no step indexes a table.
func block(dig *digest, p []byte) {
	a, b, c, d := dig.s[0], dig.s[1], dig.s[2], dig.s[3]
	for len(p) >= BlockSize {
		aa, bb, cc, dd := a, b, c, d

		_ = p[BlockSize-1] // one bounds check for the sixteen loads
		x0 := binary.LittleEndian.Uint32(p[0:])
		x1 := binary.LittleEndian.Uint32(p[4:])
		x2 := binary.LittleEndian.Uint32(p[8:])
		x3 := binary.LittleEndian.Uint32(p[12:])
		x4 := binary.LittleEndian.Uint32(p[16:])
		x5 := binary.LittleEndian.Uint32(p[20:])
		x6 := binary.LittleEndian.Uint32(p[24:])
		x7 := binary.LittleEndian.Uint32(p[28:])
		x8 := binary.LittleEndian.Uint32(p[32:])
		x9 := binary.LittleEndian.Uint32(p[36:])
		xa := binary.LittleEndian.Uint32(p[40:])
		xb := binary.LittleEndian.Uint32(p[44:])
		xc := binary.LittleEndian.Uint32(p[48:])
		xd := binary.LittleEndian.Uint32(p[52:])
		xe := binary.LittleEndian.Uint32(p[56:])
		xf := binary.LittleEndian.Uint32(p[60:])

		// Round 1: F(x,y,z) = (x & y) | (~x & z), as ((y ^ z) & x) ^ z.
		a = bits.RotateLeft32(a+(((c^d)&b)^d)+x0, 3)
		d = bits.RotateLeft32(d+(((b^c)&a)^c)+x1, 7)
		c = bits.RotateLeft32(c+(((a^b)&d)^b)+x2, 11)
		b = bits.RotateLeft32(b+(((d^a)&c)^a)+x3, 19)
		a = bits.RotateLeft32(a+(((c^d)&b)^d)+x4, 3)
		d = bits.RotateLeft32(d+(((b^c)&a)^c)+x5, 7)
		c = bits.RotateLeft32(c+(((a^b)&d)^b)+x6, 11)
		b = bits.RotateLeft32(b+(((d^a)&c)^a)+x7, 19)
		a = bits.RotateLeft32(a+(((c^d)&b)^d)+x8, 3)
		d = bits.RotateLeft32(d+(((b^c)&a)^c)+x9, 7)
		c = bits.RotateLeft32(c+(((a^b)&d)^b)+xa, 11)
		b = bits.RotateLeft32(b+(((d^a)&c)^a)+xb, 19)
		a = bits.RotateLeft32(a+(((c^d)&b)^d)+xc, 3)
		d = bits.RotateLeft32(d+(((b^c)&a)^c)+xd, 7)
		c = bits.RotateLeft32(c+(((a^b)&d)^b)+xe, 11)
		b = bits.RotateLeft32(b+(((d^a)&c)^a)+xf, 19)

		// Round 2: G(x,y,z) = (x & y) | (x & z) | (y & z), as (x & y) | ((x | y) & z).
		a = bits.RotateLeft32(a+((b&c)|((b|c)&d))+x0+0x5a827999, 3)
		d = bits.RotateLeft32(d+((a&b)|((a|b)&c))+x4+0x5a827999, 5)
		c = bits.RotateLeft32(c+((d&a)|((d|a)&b))+x8+0x5a827999, 9)
		b = bits.RotateLeft32(b+((c&d)|((c|d)&a))+xc+0x5a827999, 13)
		a = bits.RotateLeft32(a+((b&c)|((b|c)&d))+x1+0x5a827999, 3)
		d = bits.RotateLeft32(d+((a&b)|((a|b)&c))+x5+0x5a827999, 5)
		c = bits.RotateLeft32(c+((d&a)|((d|a)&b))+x9+0x5a827999, 9)
		b = bits.RotateLeft32(b+((c&d)|((c|d)&a))+xd+0x5a827999, 13)
		a = bits.RotateLeft32(a+((b&c)|((b|c)&d))+x2+0x5a827999, 3)
		d = bits.RotateLeft32(d+((a&b)|((a|b)&c))+x6+0x5a827999, 5)
		c = bits.RotateLeft32(c+((d&a)|((d|a)&b))+xa+0x5a827999, 9)
		b = bits.RotateLeft32(b+((c&d)|((c|d)&a))+xe+0x5a827999, 13)
		a = bits.RotateLeft32(a+((b&c)|((b|c)&d))+x3+0x5a827999, 3)
		d = bits.RotateLeft32(d+((a&b)|((a|b)&c))+x7+0x5a827999, 5)
		c = bits.RotateLeft32(c+((d&a)|((d|a)&b))+xb+0x5a827999, 9)
		b = bits.RotateLeft32(b+((c&d)|((c|d)&a))+xf+0x5a827999, 13)

		// Round 3: H(x,y,z) = x ^ y ^ z.
		a = bits.RotateLeft32(a+(b^c^d)+x0+0x6ed9eba1, 3)
		d = bits.RotateLeft32(d+(a^b^c)+x8+0x6ed9eba1, 9)
		c = bits.RotateLeft32(c+(d^a^b)+x4+0x6ed9eba1, 11)
		b = bits.RotateLeft32(b+(c^d^a)+xc+0x6ed9eba1, 15)
		a = bits.RotateLeft32(a+(b^c^d)+x2+0x6ed9eba1, 3)
		d = bits.RotateLeft32(d+(a^b^c)+xa+0x6ed9eba1, 9)
		c = bits.RotateLeft32(c+(d^a^b)+x6+0x6ed9eba1, 11)
		b = bits.RotateLeft32(b+(c^d^a)+xe+0x6ed9eba1, 15)
		a = bits.RotateLeft32(a+(b^c^d)+x1+0x6ed9eba1, 3)
		d = bits.RotateLeft32(d+(a^b^c)+x9+0x6ed9eba1, 9)
		c = bits.RotateLeft32(c+(d^a^b)+x5+0x6ed9eba1, 11)
		b = bits.RotateLeft32(b+(c^d^a)+xd+0x6ed9eba1, 15)
		a = bits.RotateLeft32(a+(b^c^d)+x3+0x6ed9eba1, 3)
		d = bits.RotateLeft32(d+(a^b^c)+xb+0x6ed9eba1, 9)
		c = bits.RotateLeft32(c+(d^a^b)+x7+0x6ed9eba1, 11)
		b = bits.RotateLeft32(b+(c^d^a)+xf+0x6ed9eba1, 15)

		a += aa
		b += bb
		c += cc
		d += dd

		p = p[BlockSize:]
	}
	dig.s[0], dig.s[1], dig.s[2], dig.s[3] = a, b, c, d
}
