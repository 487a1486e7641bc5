// Package randsrc is the one constructor of the repository's random
// streams. Its Source yields math/rand's additive lagged-Fibonacci stream
// bit for bit — rand.New(randsrc.New(seed)) and
// rand.New(rand.NewSource(seed)) give the same numbers from every method,
// rand.NewZipf included — but seeds in constant time.
//
// math/rand seeds its 607-word register with 1,841 steps of the
// Park-Miller generator x_{k+1} = 48271·x_k mod (2³¹−1), starting at the
// normalized seed x₀, and XORs each word with a fixed table:
//
//	w(i) = x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ cooked[i]
//
// Since x_k = x₀·48271^k mod (2³¹−1), any word is three multiplications
// by entries of one shared table of powers. The first 273 draws read only
// words no draw has written yet: draw j (1-based) is w(334−j) + w(607−j).
// So a Source keeps x₀ and a draw count, computes those two words per
// draw, and builds the full register — replaying the feed writes made so
// far — only when a stream reaches its 274th draw. Most of the
// simulation's streams (one per peer) never do. Seed keeps a built
// register, and the next stream to reach its 274th draw refills it, so
// one Source reseeded per stream allocates its register once.
//
// The cooked table is not copied from the standard library: init derives
// it from the first 607 outputs of a math/rand source with a known seed,
// which fix that source's seeded register exactly. See the "Random
// streams" section of docs/PERFORMANCE.md for the argument and the tests
// that hold it.
package randsrc

import "math/rand"

const (
	regLen  = 607             // register words
	regTap  = 273             // lag of the tap behind the feed
	feed0   = regLen - regTap // the feed's starting index (the tap's is 0)
	modulus = 1<<31 - 1       // the Park-Miller modulus, a Mersenne prime
	warmup  = 20              // Park-Miller steps math/rand discards
	int63   = 1<<63 - 1
)

// seeding holds, per register word i, what math/rand's Seed combines
// into it: the multipliers 48271^k mod (2³¹−1) of the three Park-Miller
// values x_k = x₀·48271^k (k = 21+3i, 22+3i, 23+3i) it packs into the
// word, and the cooked constant it XORs in.
var seeding [regLen]struct {
	pow    [3]uint64
	cooked int64
}

func init() {
	p := uint64(1)
	for k := 1; k <= warmup; k++ {
		p = mulmod(p, 48271)
	}
	for i := range seeding {
		for b := range seeding[i].pow {
			p = mulmod(p, 48271)
			seeding[i].pow[b] = p
		}
	}

	// Recover a known seed's register from its first 607 outputs. With
	// tap t and feed f both stepping down from 0 and 334, output j is
	// reg[f_j] + reg[t_j] and is written back to reg[f_j]; a register
	// slot the feed has already written holds the output that wrote it.
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var out [regLen + 1]int64 // out[j]: output j, 1-based
	for j := 1; j <= regLen; j++ {
		out[j] = int64(ref.Uint64())
	}
	var reg [regLen]int64
	for j := regTap + 1; j <= regLen; j++ {
		// The tap reads output j−273; the feed reads an unwritten slot.
		reg[(feed0-j+regLen)%regLen] = out[j] - out[j-regTap]
	}
	for j := 1; j <= regTap; j++ {
		// Neither slot is written yet; the tap's is one recovered above.
		reg[feed0-j] = out[j] - reg[regLen-j]
	}
	// cooked is still zero here, so word gives the Park-Miller part.
	s := New(seed)
	for i := range seeding {
		seeding[i].cooked = reg[i] ^ s.word(i)
	}
}

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the product's
// high bits onto its low ones (2³¹ ≡ 1).
func mulmod(a, b uint64) uint64 {
	v := a * b
	v = v&modulus + v>>31
	if v >= modulus {
		v -= modulus
	}
	return v
}

// Source is a rand.Source64 that yields math/rand's stream for its seed.
// Like math/rand's own source it is not safe for concurrent use.
type Source struct {
	x0  uint32    // normalized seed, in [1, 2³¹−2]
	n   uint32    // draws served while lazy, or built
	reg *register // nil until a stream's 274th draw; kept by Seed
}

// built is n once the stream draws from reg; n ≤ regTap while lazy.
const built = regTap + 1

// register is math/rand's source state, built on demand.
type register struct {
	tap, feed int
	vec       [regLen]int64
}

// New returns a Source seeded with seed. Seeding costs no register.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of seed, as math/rand's does. A
// register an earlier stream built is kept for the next build.
func (s *Source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n = uint32(seed), 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer: Uint64's
// value with the top bit cleared. It repeats Uint64's body so that a
// built stream's draw stays one call, as math/rand's is.
func (s *Source) Int63() int64 {
	if s.n != built {
		return int64(s.lazy() & int63)
	}
	return int64(s.reg.next() & int63)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.n != built {
		return s.lazy()
	}
	return s.reg.next()
}

// lazy serves a draw before the register is built: draw j ≤ 273 is
// w(334−j) + w(607−j). The 274th draw builds the register.
func (s *Source) lazy() uint64 {
	if s.n == regTap {
		s.build()
		return s.reg.next()
	}
	s.n++
	j := int(s.n)
	return uint64(s.word(feed0-j) + s.word(regLen-j))
}

// next is math/rand's draw: step tap and feed down, add, write back.
func (r *register) next() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += regLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += regLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// word returns register word i as math/rand's Seed leaves it.
func (s *Source) word(i int) int64 {
	x0, t := uint64(s.x0), &seeding[i]
	return int64(mulmod(x0, t.pow[0]))<<40 ^
		int64(mulmod(x0, t.pow[1]))<<20 ^
		int64(mulmod(x0, t.pow[2])) ^
		t.cooked
}

// build makes the register math/rand would hold after the s.n draws
// served so far, in the one an earlier stream built if there is one:
// the seeded words, with each draw's feed write replayed. Draw j ≤ 273
// wrote slot 334−j and read slot 607−j, which no draw writes before the
// 335th, so the replays are independent.
func (s *Source) build() {
	n := int(s.n)
	if s.reg == nil {
		s.reg = new(register)
	}
	r := s.reg
	r.tap, r.feed = regLen-n, feed0-n
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for j := 1; j <= n; j++ {
		r.vec[feed0-j] += r.vec[regLen-j]
	}
	s.n = built
}

// Intn returns, as a non-negative int, a pseudo-random number in [0, n):
// the number rand.New(s).Intn(n) would return, with no interface call.
// It panics if n <= 0. Intn, Int31n, Int31 and Int63n are copied
// expression for expression from the Go standard library's
// math/rand/rand.go (Copyright 2009 The Go Authors, BSD-style license),
// the n <= 0 checks of the last two left to Intn's, so they consume the
// stream as math/rand's do.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

func (s *Source) int31() int32 { return int32(s.Int63() >> 32) }

func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return s.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}
