package catalog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ed2k"
)

func small() Config {
	return Config{NumFiles: 2000, Vocabulary: 300, PopularityExp: 0.9, Seed: 7}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(small())
	b := Generate(small())
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < a.Len(); i++ {
		fa, fb := a.File(i), b.File(i)
		if fa.Hash != fb.Hash || fa.Name != fb.Name || fa.Size != fb.Size {
			t.Fatalf("file %d differs between runs", i)
		}
	}
}

// digestCatalog hashes every field of every file in index order.
func digestCatalog(c *Catalog) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < c.Len(); i++ {
		f := c.File(i)
		u64(uint64(f.Index))
		h.Write(f.Hash[:])
		u64(uint64(len(f.Name)))
		h.Write([]byte(f.Name))
		u64(uint64(f.Size))
		u64(uint64(f.Kind))
		u64(math.Float64bits(f.Weight))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins every byte Generate produces. The digests were
// taken from the string-concatenating, fmt.Sprintf-hashing generator that
// preceded the in-place one, so they are a pin, not a self-comparison.
// The catalog must not depend on GOMAXPROCS. It runs in parallel with
// the package's other long test; both start once the sequential tests,
// which count goroutines and allocations, are done.
func TestGenerateGolden(t *testing.T) {
	t.Parallel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			name string
			cfg  Config
			want string
		}{
			{"small", small(), "43a3e006c4c215ff97b58fa35a847c16fd55d5a0ac54ce15e44d439db2fbcdb6"},
			{"default", DefaultConfig(), "a603ea11f8719d18fe0d973145845b9f1bc53ccf2784162b0dff411d6d3edd3e"},
		} {
			if got := digestCatalog(Generate(tc.cfg)); got != tc.want {
				t.Errorf("GOMAXPROCS %d: %s catalog digest %s, want %s", procs, tc.name, got, tc.want)
			}
		}
	}
}

// The cumulative popularity table is the running sum, in index order, of
// the weights File reports.
func TestCumulativeWeightsSerial(t *testing.T) {
	c := Generate(small())
	total := 0.0
	for i := 0; i < c.Len(); i++ {
		total += c.File(i).Weight
		if math.Float64bits(c.cum[i]) != math.Float64bits(total) {
			t.Fatalf("cum[%d] = %v, want %v", i, c.cum[i], total)
		}
	}
	if c.total != total {
		t.Errorf("total = %v, want %v", c.total, total)
	}
}

// No goroutine outlives Generate. The count is given a second to
// settle, and the baseline settles first, so a goroutine an earlier test
// left exiting is not counted in it.
func TestGenerateLeavesNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	for _, n := range []int{1, 10, 2000, 20000} {
		Generate(Config{NumFiles: n, Vocabulary: 300, Seed: 3})
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after != before && time.Now().Before(deadline); {
			runtime.Gosched()
			after = runtime.NumGoroutine()
		}
		if after != before {
			t.Fatalf("NumFiles %d: %d goroutines after Generate, %d before", n, after, before)
		}
	}
}

// settledGoroutines polls the goroutine count until it has held still
// for 20 samples a millisecond apart (giving up after a second) and
// returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same, deadline := 0, time.Now().Add(time.Second); same < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// A name chunk is closed before the next name could overflow it, and a
// hash preimage fits its stack buffer, only while maxNameLen bounds every
// name appendName writes.
func TestNamesFitMaxNameLen(t *testing.T) {
	for _, s := range syllables {
		if len(s) > 3 {
			t.Errorf("syllable %q is longer than the three letters maxNameLen assumes", s)
		}
	}
	c := Generate(Config{NumFiles: 20000, Vocabulary: 2000, Seed: 9})
	for i := 0; i < c.Len(); i++ {
		if name := c.File(i).Name; len(name) > maxNameLen {
			t.Fatalf("file %d name %q is %d bytes, maxNameLen %d", i, name, len(name), maxNameLen)
		}
	}
}

// Generate builds the synthetic-hash preimage in place; it must stay the
// one ed2k.SyntheticHash would build from the documented seed string.
func TestHashMatchesSyntheticHash(t *testing.T) {
	for _, cfg := range []Config{small(), {NumFiles: 500, Vocabulary: 100, Seed: -12}} {
		c := Generate(cfg)
		for i := 0; i < c.Len(); i += 37 {
			f := c.File(i)
			want := ed2k.SyntheticHash(fmt.Sprintf("catalog/%d/%d/%s", cfg.Seed, i, f.Name))
			if f.Hash != want {
				t.Fatalf("seed %d file %d: hash %s, want %s", cfg.Seed, i, f.Hash, want)
			}
		}
	}
}

// MaxVocabulary counts syllable sequences; it equals the number of
// distinct words only while no syllable is a prefix of another.
func TestSyllablesPrefixFree(t *testing.T) {
	for i, a := range syllables {
		for j, b := range syllables {
			if i != j && strings.HasPrefix(b, a) {
				t.Errorf("syllable %q is a prefix of %q", a, b)
			}
		}
	}
	if MaxVocabulary != 900+27_000+810_000 {
		t.Errorf("MaxVocabulary = %d", MaxVocabulary)
	}
}

// A catalog costs its columns: kind, size, name end, hash slot and
// cumulative weight per file, plus the names themselves, about 80 bytes
// per file. The generator that built one File struct per file allocated
// 110; a copy of the names (≈ 35 bytes per file) would break the bound.
func TestGenerateBytesPerFile(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 300,000-file default catalog")
	}
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Generate(cfg)
	runtime.ReadMemStats(&after)
	if perFile := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.NumFiles); perFile > 90 {
		t.Errorf("Generate(DefaultConfig()): %.1f bytes per file, want <= 90", perFile)
	}
}

// Goroutines that read the same cold files at once see what one reader
// sees: each hash is minted once, and a racing reader waits for it.
func TestConcurrentFirstAccess(t *testing.T) {
	want := Generate(small())
	c := Generate(small())
	const readers = 8
	got := make([][]File, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g % 2)))
			for i := 0; i < c.Len(); i += 3 {
				got[g] = append(got[g], c.File(i), c.Sample(rng))
			}
		}()
	}
	wg.Wait()
	for g, files := range got {
		rng := rand.New(rand.NewSource(int64(g % 2)))
		for k, i := 0, 0; i < want.Len(); k, i = k+2, i+3 {
			if files[k] != want.File(i) || files[k+1] != want.Sample(rng) {
				t.Fatalf("reader %d: file %d or the sample after it differs from a lone reader's", g, i)
			}
		}
	}
}

func TestGenerateAllocsPerFile(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 300,000-file default catalog")
	}
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(1, func() { Generate(cfg) })
	if perFile := allocs / float64(cfg.NumFiles); perFile > 0.01 {
		t.Errorf("Generate(DefaultConfig()): %.4f allocs per file, want <= 0.01", perFile)
	}
}

func TestHashesUnique(t *testing.T) {
	c := Generate(small())
	seen := map[string]bool{}
	for i := 0; i < c.Len(); i++ {
		h := c.File(i).Hash.String()
		if seen[h] {
			t.Fatalf("duplicate hash at %d", i)
		}
		seen[h] = true
	}
}

func TestByHash(t *testing.T) {
	c := Generate(small())
	f := c.File(123)
	got, ok := c.ByHash(f.Hash)
	if !ok || got.Index != 123 {
		t.Errorf("ByHash: ok=%v index=%d", ok, got.Index)
	}
	var zero [16]byte
	if _, ok := c.ByHash(zero); ok {
		t.Error("ByHash(zero) should miss")
	}
}

func TestPopularitySampling(t *testing.T) {
	c := Generate(small())
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, c.Len())
	const draws = 200_000
	for i := 0; i < draws; i++ {
		counts[c.Sample(rng).Index]++
	}
	// Rank 0 must be sampled far more often than rank 1000.
	if counts[0] < 5*counts[1000] {
		t.Errorf("popularity skew too weak: rank0=%d rank1000=%d", counts[0], counts[1000])
	}
	// Head heaviness: top 1% of files should receive well over 5% of draws.
	head := 0
	for i := 0; i < c.Len()/100; i++ {
		head += counts[i]
	}
	if float64(head)/draws < 0.05 {
		t.Errorf("top 1%% of files got only %.2f%% of draws", 100*float64(head)/draws)
	}
}

// SampleIndex draws the indices Sample draws from the same seed, and
// reads no file: every hash slot stays cold.
func TestSampleIndexMatchesSampleColdly(t *testing.T) {
	c := Generate(small())
	want := Generate(small())
	rng, wantRng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for k := 0; k < 5000; k++ {
		if i, f := c.SampleIndex(rng), want.Sample(wantRng); i != f.Index {
			t.Fatalf("draw %d: SampleIndex %d, Sample file %d", k, i, f.Index)
		}
	}
	for i := range c.hashes {
		if c.hashes[i].state.Load() != cold {
			t.Fatalf("file %d hashed by SampleIndex", i)
		}
	}
}

func TestSampleLibraryDistinct(t *testing.T) {
	c := Generate(small())
	rng := rand.New(rand.NewSource(2))
	lib := c.SampleDistinct(rng, nil, 50, 0)
	if len(lib) != 50 {
		t.Fatalf("library size %d", len(lib))
	}
	seen := map[int]bool{}
	for _, i := range lib {
		if seen[i] {
			t.Fatalf("duplicate file %d in library", i)
		}
		seen[i] = true
	}
}

func TestSampleLibraryClampsToCatalog(t *testing.T) {
	c := Generate(Config{NumFiles: 10, Vocabulary: 50, PopularityExp: 0.9, Seed: 1})
	rng := rand.New(rand.NewSource(3))
	lib := c.SampleDistinct(rng, nil, 100, 0)
	if len(lib) > 10 {
		t.Errorf("library larger than catalog: %d", len(lib))
	}
}

// Entry is File without the weight: the same hash, name, size and kind.
func TestEntryMatchesFile(t *testing.T) {
	c := Generate(small())
	for i := 0; i < c.Len(); i += 37 {
		f := c.File(i)
		h, name, size, kind := c.Entry(i)
		if h != f.Hash || name != f.Name || size != f.Size || kind != f.Kind {
			t.Fatalf("Entry(%d) = %v %q %d %v, File says %v %q %d %v", i, h, name, size, kind, f.Hash, f.Name, f.Size, f.Kind)
		}
	}
}

func TestNamesLookRealistic(t *testing.T) {
	c := Generate(small())
	exts := map[string]bool{".avi": true, ".mp3": true, ".iso": true, ".pdf": true, ".rar": true, ".jpg": true}
	for i := 0; i < 200; i++ {
		name := c.File(i).Name
		dot := strings.LastIndex(name, ".")
		if dot < 0 || !exts[name[dot:]] {
			t.Errorf("file %d name %q has unexpected extension", i, name)
		}
		if len(name) < 5 {
			t.Errorf("name too short: %q", name)
		}
	}
}

func TestWordReuseAcrossNames(t *testing.T) {
	// The anonymization threshold logic depends on words recurring across
	// file names; verify the vocabulary actually gets reused.
	c := Generate(small())
	freq := map[string]int{}
	for i := 0; i < c.Len(); i++ {
		name := c.File(i).Name
		name = strings.TrimSuffix(name, name[strings.LastIndex(name, "."):])
		for _, w := range strings.Split(name, ".") {
			freq[w]++
		}
	}
	reused := 0
	for _, n := range freq {
		if n >= 5 {
			reused++
		}
	}
	if reused < 50 {
		t.Errorf("only %d words reused >=5 times; name vocabulary too flat", reused)
	}
}

func TestMeanSizeInPaperBallpark(t *testing.T) {
	c := Generate(Config{NumFiles: 20000, Vocabulary: 2000, PopularityExp: 0.9, Seed: 5})
	var sum int64
	for _, size := range c.sizes {
		sum += size
	}
	mean := sum / int64(c.Len())
	// Paper: 9TB/28,007 ≈ 321 MB and 90TB/267,047 ≈ 337 MB per file.
	if mean < 150<<20 || mean > 700<<20 {
		t.Errorf("mean size %d MB outside the paper's ballpark", mean>>20)
	}
}

func TestSizesPositiveAndBounded(t *testing.T) {
	c := Generate(small())
	for i := 0; i < c.Len(); i++ {
		s := c.File(i).Size
		if s <= 0 || s > 5<<30 {
			t.Errorf("file %d size %d out of range", i, s)
		}
	}
}

func TestKindString(t *testing.T) {
	if Movie.String() != "Video" || Song.String() != "Audio" {
		t.Error("kind tags")
	}
	if Kind(99).String() != "Unknown" {
		t.Error("unknown kind tag")
	}
}

func BenchmarkGenerate10k(b *testing.B) {
	cfg := Config{NumFiles: 10000, Vocabulary: 2000, PopularityExp: 0.9, Seed: 1}
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}

func BenchmarkGenerate300k(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}

func BenchmarkSample(b *testing.B) {
	c := Generate(small())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sample(rng)
	}
}
