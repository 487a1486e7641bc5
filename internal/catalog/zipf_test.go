package catalog

import (
	"math/rand"
	"testing"

	"repro/internal/randsrc"
)

// wordDrawDiffers reports the first of n draws at which wordDraw and
// rand.Zipf, each on its own stream from seed, disagree, or -1.
func wordDrawDiffers(seed int64, s, v float64, imax uint64, n int) (int, uint64, uint64) {
	want := rand.NewZipf(rand.New(randsrc.New(seed)), s, v, imax)
	got := newWordDraw(rand.New(randsrc.New(seed)), s, v, imax)
	for i := range n {
		if w, g := want.Uint64(), got.next(); w != g {
			return i, g, w
		}
	}
	return -1, 0, 0
}

// The tabled draw must be rand.Zipf, value for value and uniform for
// uniform: the catalog's parameters over 10M draws, and other exponents,
// offsets and ranges (a one-word vocabulary, the largest one) over 1M.
func TestWordDrawMatchesStdlib(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, tc := range []struct {
		seed    int64
		s, v    float64
		imax    uint64
		perDraw int
	}{
		{1, 1.4, 1, 7999, 10},
		{7, 1.4, 1, 499, 1},
		{2, 1.4, 1, 0, 1},
		{3, 1.4, 1, uint64(MaxVocabulary - 1), 1},
		{4, 1.01, 1, 7999, 1},
		{5, 2.5, 10, 99_999, 1},
		{6, 4, 100, 1<<20 - 1, 1},
	} {
		if i, g, w := wordDrawDiffers(tc.seed, tc.s, tc.v, tc.imax, draws*tc.perDraw); i >= 0 {
			t.Errorf("seed %d s %v v %v imax %d: draw %d = %d, rand.Zipf gives %d", tc.seed, tc.s, tc.v, tc.imax, i, g, w)
		}
	}
}

// FuzzWordDraw checks 10,000 draws of arbitrary Zipf laws with s in
// (1, 4], v in [1, 100] and imax below 2^20 against rand.Zipf.
func FuzzWordDraw(f *testing.F) {
	f.Add(int64(1), 1.4, 1.0, uint32(7999))
	f.Add(int64(-9), 1.0000001, 100.0, uint32(0))
	f.Add(int64(42), 4.0, 3.5, uint32(1<<20-1))
	f.Fuzz(func(t *testing.T, seed int64, s, v float64, imax uint32) {
		if !(s > 1 && s <= 4 && v >= 1 && v <= 100) {
			t.Skip()
		}
		imax %= 1 << 20
		if i, g, w := wordDrawDiffers(seed, s, v, uint64(imax), 10_000); i >= 0 {
			t.Errorf("seed %d s %v v %v imax %d: draw %d = %d, rand.Zipf gives %d", seed, s, v, imax, i, g, w)
		}
	})
}

// Most of the catalog's word draws must come from the table: the loop is
// what a draw costs. Buckets are equally likely, so the share of tabled
// buckets is the share of draws the table answers (≈ 94 %).
func TestWordDrawMostlyTabled(t *testing.T) {
	z := newWordDraw(rand.New(randsrc.New(1)), 1.4, 1, 7999)
	for range 200_000 {
		z.next()
	}
	tabled, filled := 0, 0
	for _, e := range z.table {
		if e != 0 {
			filled++
		}
		if e > 0 {
			tabled++
		}
	}
	if frac := float64(tabled) / float64(filled); frac < 0.9 {
		t.Errorf("%d of %d evaluated buckets tabled, want at least 90%%", tabled, filled)
	}
}
