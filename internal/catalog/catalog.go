// Package catalog models the universe of files circulating in the
// simulated eDonkey network: pseudo-realistic names built from a Zipfian
// vocabulary, sizes drawn per media archetype, and a Zipfian popularity
// law. The paper's campaigns observed 28k (distributed) and 267k (greedy)
// distinct files averaging ≈330 MB; the default archetype mix matches
// that order of magnitude.
//
// Generate draws every file from one seeded RNG on the calling goroutine
// and hands the hashing and the rest of each file to GOMAXPROCS workers,
// so the default 300,000-file catalog builds on every core while staying
// bit-for-bit a function of its Config alone.
package catalog

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/ed2k"
	"repro/internal/md4"
)

// Kind is the media archetype of a file.
type Kind int

// Archetypes, roughly matching eDonkey's media type tags.
const (
	Movie Kind = iota
	Song
	Distro
	Text
	Archive
	Image
	numKinds
)

// String returns the eDonkey media-type tag value for the kind.
func (k Kind) String() string {
	switch k {
	case Movie:
		return "Video"
	case Song:
		return "Audio"
	case Distro:
		return "Pro"
	case Text:
		return "Doc"
	case Archive:
		return "Pro"
	case Image:
		return "Image"
	default:
		return "Unknown"
	}
}

func (k Kind) extension() string {
	switch k {
	case Movie:
		return ".avi"
	case Song:
		return ".mp3"
	case Distro:
		return ".iso"
	case Text:
		return ".pdf"
	case Archive:
		return ".rar"
	case Image:
		return ".jpg"
	default:
		return ".bin"
	}
}

// File is one catalog entry.
type File struct {
	// Index is the file's position in the catalog; lower index means more
	// popular under the default popularity law.
	Index int
	Hash  ed2k.Hash
	Name  string
	Size  int64
	Kind  Kind
	// Weight is the file's relative popularity (arbitrary scale).
	Weight float64
}

// Config tunes catalog generation.
type Config struct {
	// NumFiles is the catalog size.
	NumFiles int
	// Vocabulary is the number of distinct words names draw from.
	Vocabulary int
	// PopularityExp is the Zipf exponent of file popularity (≈0.9 fits
	// measured file-sharing workloads).
	PopularityExp float64
	// Seed feeds the generator.
	Seed int64
}

// DefaultConfig returns the catalog model used by the campaigns.
func DefaultConfig() Config {
	return Config{NumFiles: 300_000, Vocabulary: 8_000, PopularityExp: 0.9, Seed: 1}
}

// Catalog is an immutable generated file universe.
type Catalog struct {
	files []File
	cum   []float64 // cumulative weights for popularity sampling
	total float64

	byHashOnce sync.Once
	byHash     map[ed2k.Hash]int // built by the first ByHash call
}

// kindMix is the archetype distribution; tuned so the mean size is a few
// hundred MB as in the paper's Table I.
var kindMix = []struct {
	kind Kind
	prob float64
}{
	{Song, 0.50},
	{Movie, 0.18},
	{Text, 0.12},
	{Archive, 0.12},
	{Image, 0.06},
	{Distro, 0.02},
}

// MaxVocabulary is the number of distinct words drawVocabulary can produce:
// every sequence of 2, 3 or 4 syllables. No syllable is a prefix of
// another, so distinct sequences spell distinct words and the count is
// exact. Generate never returns for a Config.Vocabulary above it — the
// vocabulary loop waits for a word that cannot exist — so callers that
// take a Config from outside must reject larger values.
const MaxVocabulary = numSyllables*numSyllables +
	numSyllables*numSyllables*numSyllables +
	numSyllables*numSyllables*numSyllables*numSyllables

const numSyllables = len(syllables)

// syllables used to mint pronounceable pseudo-words.
var syllables = [...]string{
	"ba", "co", "di", "fu", "ga", "he", "ki", "lo", "ma", "ne",
	"or", "pa", "qui", "ra", "su", "ta", "ul", "ve", "wo", "xy",
	"zen", "tor", "mir", "sal", "bre", "cla", "dro", "fle", "gri", "pla",
}

// MaxFiles is the largest Config.NumFiles callers that take a Config
// from outside should accept: 14× the default, a catalog of ≈ 400 MB.
// Generate allocates every file up front, so a larger value from an
// untrusted spec would exhaust memory before any check could run.
const MaxFiles = 1 << 22

// chunkBytes bounds the name bytes of one chunk handed from the draw
// stage to the mint workers; chunks in flight stay a few hundred KiB.
const chunkBytes = 64 << 10

// maxNameLen is the longest name appendName writes: five words of four
// three-letter syllables, four dots, a ".yyyy" year and a four-byte
// extension. A chunk is handed over before the next name could overflow
// its buffer.
const maxNameLen = 5*4*3 + 4 + 5 + 4

// chunk carries consecutive files from the draw stage to a mint worker.
type chunk struct {
	first int     // index of the chunk's first file
	names []byte  // the files' names, back to back
	ends  []int32 // ends[k] is where file first+k's name ends in names
}

// Generate builds a catalog. It is deterministic in cfg: the result does
// not depend on GOMAXPROCS.
//
// It runs in two stages. The calling goroutine is the draw stage and the
// only consumer of the seeded RNG: in index order, exactly as a serial
// generator would, it draws each file's kind, name and size, storing the
// kind and size in the file and the name into a chunk of at most
// chunkBytes of names. GOMAXPROCS(0) mint workers take finished chunks
// and complete their files: the hash over the synthetic-hash preimage
// "repro/ed2k/synthetic:catalog/<seed>/<i>/<name>" (what
// ed2k.SyntheticHash hashes for "catalog/<seed>/<i>/<name>"), the
// popularity weight, and the name, sliced from one string per chunk.
// Workers write disjoint files, and once they have all returned one
// serial pass sums the weights in index order, so the cumulative table
// is bit-for-bit what a serial generator computes. No goroutine outlives
// the call.
func Generate(cfg Config) *Catalog {
	if cfg.NumFiles <= 0 {
		panic("catalog: NumFiles must be positive")
	}
	if cfg.Vocabulary <= 0 {
		cfg.Vocabulary = 8000
	}
	if cfg.PopularityExp <= 0 {
		cfg.PopularityExp = 0.9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := drawVocabulary(rng, cfg.Vocabulary)
	// Zipf over the vocabulary: word rank r has weight 1/(r+1)^1.0.
	wordZipf := rand.NewZipf(rng, 1.4, 1, uint64(cfg.Vocabulary-1))

	c := &Catalog{
		files: make([]File, cfg.NumFiles),
		cum:   make([]float64, cfg.NumFiles),
	}
	prefix := strconv.AppendInt([]byte("repro/ed2k/synthetic:catalog/"), cfg.Seed, 10)
	prefix = append(prefix, '/')

	// Each worker can have a chunk queued behind the one it mints while
	// the draw stage fills the next. free holds every chunk buffer ever
	// made (at most 2*workers), so returning one never blocks.
	workers := runtime.GOMAXPROCS(0)
	full := make(chan *chunk, workers)
	free := make(chan *chunk, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(pre []byte) {
			defer wg.Done()
			for ch := range full {
				pre = mint(c.files, ch, pre, len(prefix), cfg.PopularityExp)
				ch.names, ch.ends = ch.names[:0], ch.ends[:0]
				free <- ch
			}
		}(slices.Clone(prefix))
	}
	draw(c.files, rng, vocab, wordZipf, full, free, 2*workers)
	wg.Wait()

	for i := range c.files {
		c.total += c.files[i].Weight
		c.cum[i] = c.total
	}
	return c
}

// draw is the sequential stage of Generate: it draws every file's kind,
// name and size in index order and sends the names to the mint workers
// in chunks, taking at most maxChunks chunk buffers and recycling them
// through free. It closes full when done.
func draw(files []File, rng *rand.Rand, vocab []string, wordZipf *rand.Zipf, full chan<- *chunk, free <-chan *chunk, maxChunks int) {
	defer close(full)
	made := 0
	next := func(first int) *chunk {
		var ch *chunk
		select {
		case ch = <-free:
		default:
			if made < maxChunks {
				made++
				ch = &chunk{names: make([]byte, 0, chunkBytes), ends: make([]int32, 0, chunkBytes/16)}
			} else {
				ch = <-free
			}
		}
		ch.first = first
		return ch
	}
	ch := next(0)
	for i := range files {
		if len(ch.names) > chunkBytes-maxNameLen {
			full <- ch
			ch = next(i)
		}
		kind := sampleKind(rng)
		ch.names = appendName(ch.names, rng, vocab, wordZipf, kind)
		ch.ends = append(ch.ends, int32(len(ch.names)))
		f := &files[i]
		f.Index, f.Kind, f.Size = i, kind, sampleSize(rng, kind)
	}
	full <- ch
}

// mint completes the files of one chunk: hash, name and weight. pre
// holds the synthetic-hash preimage prefix in its first prefixLen bytes
// and is returned for reuse.
func mint(files []File, ch *chunk, pre []byte, prefixLen int, exp float64) []byte {
	names := string(ch.names)
	start := 0
	for k, end := range ch.ends {
		i := ch.first + k
		name := names[start:end]
		pre = strconv.AppendInt(pre[:prefixLen], int64(i), 10)
		pre = append(pre, '/')
		pre = append(pre, name...)
		f := &files[i]
		f.Hash = md4.Sum(pre)
		f.Name = name
		f.Weight = 1.0 / math.Pow(float64(i+1), exp)
		start = int(end)
	}
	return pre
}

// drawVocabulary draws n distinct words from rng. The words share one
// backing string. A word is identified by its syllable sequence, coded
// as digits 1..numSyllables in base numSyllables+1, so sequences of
// different lengths never collide and four syllables fit in a uint32;
// since no syllable is a prefix of another, distinct sequences are
// distinct words.
func drawVocabulary(rng *rand.Rand, n int) []string {
	arena := make([]byte, 0, 8*n)
	ends := make([]int, n)
	seen := make(map[uint32]struct{}, n)
	for i := 0; i < n; {
		start, code := len(arena), uint32(0)
		for k := 2 + rng.Intn(3); k > 0; k-- {
			s := rng.Intn(numSyllables)
			code = code*uint32(numSyllables+1) + uint32(s) + 1
			arena = append(arena, syllables[s]...)
		}
		if _, dup := seen[code]; dup {
			arena = arena[:start]
			continue
		}
		seen[code] = struct{}{}
		ends[i] = len(arena)
		i++
	}
	words := string(arena)
	vocab := make([]string, n)
	start := 0
	for i, end := range ends {
		vocab[i] = words[start:end]
		start = end
	}
	return vocab
}

// appendName appends one file name to buf: 2-5 Zipf-drawn vocabulary
// words joined by dots, a year on 30 % of names, the kind's extension.
func appendName(buf []byte, rng *rand.Rand, vocab []string, wordZipf *rand.Zipf, kind Kind) []byte {
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = append(buf, vocab[int(wordZipf.Uint64())%len(vocab)]...)
	}
	if rng.Float64() < 0.3 {
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(1995+rng.Intn(14)), 10)
	}
	return append(buf, kind.extension()...)
}

func sampleKind(rng *rand.Rand) Kind {
	x := rng.Float64()
	for _, km := range kindMix {
		if x < km.prob {
			return km.kind
		}
		x -= km.prob
	}
	return Song
}

func sampleSize(rng *rand.Rand, kind Kind) int64 {
	u := rng.Float64()
	between := func(lo, hi int64) int64 {
		return lo + int64(u*float64(hi-lo))
	}
	switch kind {
	case Movie:
		return between(650<<20, 4500<<20)
	case Song:
		return between(3<<20, 12<<20)
	case Distro:
		return between(600<<20, 4300<<20)
	case Text:
		return between(50<<10, 10<<20)
	case Archive:
		return between(10<<20, 2000<<20)
	case Image:
		return between(100<<10, 5<<20)
	default:
		return 1 << 20
	}
}

// Len returns the catalog size.
func (c *Catalog) Len() int { return len(c.files) }

// File returns entry i.
func (c *Catalog) File(i int) File { return c.files[i] }

// ByHash finds a file by its ed2k hash. The index is built on the first
// call, not by Generate: campaigns never look files up by hash.
func (c *Catalog) ByHash(h ed2k.Hash) (File, bool) {
	c.byHashOnce.Do(func() {
		c.byHash = make(map[ed2k.Hash]int, len(c.files))
		for i := range c.files {
			c.byHash[c.files[i].Hash] = i
		}
	})
	i, ok := c.byHash[h]
	if !ok {
		return File{}, false
	}
	return c.files[i], true
}

// Sample draws a file according to the popularity law.
func (c *Catalog) Sample(rng *rand.Rand) File {
	x := rng.Float64() * c.total
	i := sort.SearchFloat64s(c.cum, x)
	if i >= len(c.files) {
		i = len(c.files) - 1
	}
	return c.files[i]
}

// SampleLibrary draws up to n distinct files, popularity-weighted: a
// simulated peer's shared folder.
func (c *Catalog) SampleLibrary(rng *rand.Rand, n int) []File {
	if n > len(c.files) {
		n = len(c.files)
	}
	out := make([]File, 0, n)
	taken := make(map[int]bool, n)
	for attempts := 0; len(out) < n && attempts < 20*n; attempts++ {
		f := c.Sample(rng)
		if !taken[f.Index] {
			taken[f.Index] = true
			out = append(out, f)
		}
	}
	return out
}

// TopN returns the n most popular files (lowest indices).
func (c *Catalog) TopN(n int) []File {
	if n > len(c.files) {
		n = len(c.files)
	}
	out := make([]File, n)
	copy(out, c.files[:n])
	return out
}

// MeanSize returns the average file size, used to reproduce the "space
// used by distinct files" row of Table I.
func (c *Catalog) MeanSize() int64 {
	if len(c.files) == 0 {
		return 0
	}
	var sum int64
	for _, f := range c.files {
		sum += f.Size
	}
	return sum / int64(len(c.files))
}
