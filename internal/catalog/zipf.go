package catalog

import (
	"math"
	"math/rand"
)

// wordDraw draws exactly the values, from exactly the uniforms, that
// rand.NewZipf(r, s, v, imax) would. rand.Zipf maps a uniform r through
// hinv (an Exp of a Log) to x, rounds it to k and accepts at once when
// k−x ≤ s. The first draw into a bucket of r (its top bucketBits bits)
// evaluates x at the bucket's ends: when both round to the same k, take
// the fast accept and lie tableMargin inside every boundary (k±½, k−s),
// so does every r between them, as ur is monotone in r and Log and Exp
// are within an ulp of monotone; the bucket then answers k with no math.
// Other buckets run rand.Zipf's loop. newWordDraw, h, hinv and that loop
// are copied expression for expression from the Go standard library's
// math/rand/zipf.go (Copyright 2009 The Go Authors, BSD-style license),
// so they round, and fuse, as rand.Zipf does.
type wordDraw struct {
	r                                      *rand.Rand
	imax, v, q, s, oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm                       float64

	table []int32 // per bucket: 0 not yet evaluated, -1 the loop, else k+1
}

const bucketBits, tableMargin = 16, 1e-6

func newWordDraw(r *rand.Rand, s float64, v float64, imax uint64) *wordDraw {
	z := &wordDraw{r: r, table: make([]int32, 1<<bucketBits)}
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *wordDraw) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *wordDraw) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// next returns the next variate, what rand.Zipf.Uint64 would.
func (z *wordDraw) next() uint64 {
	r := z.r.Float64() // r on [0,1)
	b := int(r * (1 << bucketBits))
	if z.table[b] == 0 {
		z.table[b] = z.tabulate(b)
	}
	if t := z.table[b]; t > 0 {
		return uint64(t - 1)
	}
	k := 0.0
	for {
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
		r = z.r.Float64()
	}
	return uint64(k)
}

// tabulate returns bucket b's table entry: k+1 if every uniform in
// [b, b+1)/2^bucketBits takes the fast accept with the same k, else -1.
func (z *wordDraw) tabulate(b int) int32 {
	k := -1.0
	for end := b; end <= b+1; end++ {
		r := float64(end) / (1 << bucketBits)
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		kx := math.Floor(x + 0.5)
		inside := x-(kx-0.5) >= tableMargin && (kx+0.5)-x >= tableMargin && kx-x <= z.s-tableMargin
		if !inside || kx < 0 || kx >= math.MaxInt32-1 || (end > b && kx != k) {
			return -1
		}
		k = kx
	}
	return int32(k) + 1
}
