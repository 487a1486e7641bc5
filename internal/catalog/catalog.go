// Package catalog models the universe of files circulating in the
// simulated eDonkey network: pseudo-realistic names built from a Zipfian
// vocabulary, sizes drawn per media archetype, and a Zipfian popularity
// law. The paper's campaigns observed 28k (distributed) and 267k (greedy)
// distinct files averaging ≈330 MB; the default archetype mix matches
// that order of magnitude.
//
// Generate makes one serial pass over a seeded RNG for each file's kind,
// name and size. A file's hash is minted the first time a caller reads
// the file, so a campaign hashes only the files it touches, and the
// catalog stays bit-for-bit a function of its Config alone.
package catalog

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ed2k"
	"repro/internal/md4"
	"repro/internal/randsrc"
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

// Catalog is an immutable generated file universe, safe for concurrent
// use: columns Generate fills, and hashes minted by their first reader.
type Catalog struct {
	kinds  []uint8
	sizes  []int64
	ends   []uint32 // ends[i]: chunk<<chunkBits | where file i's name ends in it
	chunks []string // names, back to back, at most chunkBytes per chunk
	hashes []hashSlot
	cum    []float64 // cumulative weights for popularity sampling
	total  float64
	exp    float64
	prefix string // the synthetic-hash preimage up to the file's index

	byHashOnce sync.Once
	byHash     map[ed2k.Hash]int // built by the first ByHash call
}

// hashSlot holds one file's hash once its state is minted.
type hashSlot struct {
	state atomic.Uint32 // cold, minting or minted
	hash  ed2k.Hash
}

const cold, minting, minted uint32 = 0, 1, 2

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

// Names are written back to back into chunks of at most chunkBytes, so
// a name's end fits under its chunk's index in one uint32. maxNameLen is
// the longest name appendName writes: five words of four three-letter
// syllables, four dots, a ".yyyy" year and a four-byte extension; a chunk
// is closed before the next name could overflow it.
const (
	chunkBits  = 16
	chunkBytes = 1 << chunkBits
	maxNameLen = 5*4*3 + 4 + 5 + 4
)

// Generate builds a catalog. It is deterministic in cfg: one pass over
// the seeded RNG draws each file's kind, name and size while a goroutine
// sums the weights 1/(i+1)^exp, both in index order. A file's hash, md4
// of "repro/ed2k/synthetic:catalog/<seed>/<i>/<name>" (what
// ed2k.SyntheticHash hashes for "catalog/<seed>/<i>/<name>"), depends on
// nothing else, so it is minted when first read.
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
	rng := rand.New(randsrc.New(cfg.Seed))
	vocab := drawVocabulary(rng, cfg.Vocabulary)
	// Zipf over the vocabulary: word rank r has weight 1/(r+1)^1.4.
	words := newWordDraw(rng, 1.4, 1, uint64(cfg.Vocabulary-1))

	c := &Catalog{
		kinds:  make([]uint8, cfg.NumFiles),
		sizes:  make([]int64, cfg.NumFiles),
		ends:   make([]uint32, cfg.NumFiles),
		hashes: make([]hashSlot, cfg.NumFiles),
		cum:    make([]float64, cfg.NumFiles),
		exp:    cfg.PopularityExp,
		prefix: "repro/ed2k/synthetic:catalog/" + strconv.FormatInt(cfg.Seed, 10) + "/",
	}
	// The popularity table draws no uniform: a goroutine sums it meanwhile.
	summed := make(chan struct{})
	go func() {
		defer close(summed)
		for i := range c.cum {
			c.total += c.weight(i)
			c.cum[i] = c.total
		}
	}()
	var b strings.Builder
	b.Grow(chunkBytes)
	for i := range cfg.NumFiles {
		if b.Len() > chunkBytes-1-maxNameLen {
			c.chunks = append(c.chunks, b.String())
			b = strings.Builder{}
			b.Grow(chunkBytes)
		}
		kind := sampleKind(rng)
		appendName(&b, rng, vocab, words, kind)
		c.ends[i] = uint32(len(c.chunks)<<chunkBits | b.Len())
		c.kinds[i], c.sizes[i] = uint8(kind), sampleSize(rng, kind)
	}
	c.chunks = append(c.chunks, b.String())
	<-summed
	return c
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

// appendName appends one file name to b: 2-5 Zipf-drawn vocabulary
// words joined by dots, a year on 30 % of names, the kind's extension.
func appendName(b *strings.Builder, rng *rand.Rand, vocab []string, words *wordDraw, kind Kind) {
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(vocab[int(words.next())%len(vocab)])
	}
	if rng.Float64() < 0.3 {
		var year [5]byte
		b.Write(strconv.AppendInt(append(year[:0], '.'), int64(1995+rng.Intn(14)), 10))
	}
	b.WriteString(kind.extension())
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
func (c *Catalog) Len() int { return len(c.kinds) }

// File returns entry i.
func (c *Catalog) File(i int) File {
	return File{Index: i, Hash: c.hash(i), Name: c.name(i), Size: c.sizes[i], Kind: Kind(c.kinds[i]), Weight: c.weight(i)}
}

// Entry returns what File(i) says of the file itself, its hash, name,
// size and kind, without working out its popularity weight.
func (c *Catalog) Entry(i int) (ed2k.Hash, string, int64, Kind) {
	return c.hash(i), c.name(i), c.sizes[i], Kind(c.kinds[i])
}

// name starts where file i-1's ends, unless that is in an earlier chunk.
func (c *Catalog) name(i int) string {
	end := c.ends[i]
	start := end &^ (chunkBytes - 1)
	if i > 0 && c.ends[i-1] > start {
		start = c.ends[i-1]
	}
	return c.chunks[end>>chunkBits][start&(chunkBytes-1) : end&(chunkBytes-1)]
}

func (c *Catalog) weight(i int) float64 { return 1.0 / math.Pow(float64(i+1), c.exp) }

// hash returns file i's hash, minting it on the first call. A caller
// that races the minting one waits for it.
func (c *Catalog) hash(i int) ed2k.Hash {
	slot := &c.hashes[i]
	if slot.state.CompareAndSwap(cold, minting) {
		var buf [160]byte
		pre := strconv.AppendInt(append(buf[:0], c.prefix...), int64(i), 10)
		slot.hash = md4.Sum(append(append(pre, '/'), c.name(i)...))
		slot.state.Store(minted)
	}
	for slot.state.Load() != minted {
		runtime.Gosched()
	}
	return slot.hash
}

// ByHash finds a file by its ed2k hash. The index is built on the first
// call, not by Generate: campaigns never look files up by hash.
func (c *Catalog) ByHash(h ed2k.Hash) (File, bool) {
	c.byHashOnce.Do(func() {
		c.byHash = make(map[ed2k.Hash]int, c.Len())
		for i := range c.Len() {
			c.byHash[c.hash(i)] = i
		}
	})
	i, ok := c.byHash[h]
	if !ok {
		return File{}, false
	}
	return c.File(i), true
}

// Sample draws a file according to the popularity law.
func (c *Catalog) Sample(rng *rand.Rand) File { return c.File(c.SampleIndex(rng)) }

// SampleIndex draws a file's index as Sample does, from the same random
// numbers, without reading the file: a caller that may reject the draw
// reads (and so hashes) only the files it keeps.
func (c *Catalog) SampleIndex(rng *rand.Rand) int {
	x := rng.Float64() * c.total
	return min(sort.SearchFloat64s(c.cum, x), c.Len()-1)
}

// SampleDistinct fills buf with up to n distinct indices drawn as
// SampleIndex draws them: below region when it narrows the catalog, in
// at most 30 draws an index, else clamped to the catalog, in 20.
func (c *Catalog) SampleDistinct(rng *rand.Rand, buf []int, n, region int) []int {
	bound, perIndex := c.Len(), 20
	if region > 0 && region < bound {
		bound, perIndex = region, 30
	} else {
		n = min(n, bound)
	}
	buf = buf[:0]
	for tries := perIndex * n; len(buf) < n && tries > 0; tries-- {
		if i := c.SampleIndex(rng); i < bound && !slices.Contains(buf, i) {
			buf = append(buf, i)
		}
	}
	return buf
}

// TopN returns the n most popular files (lowest indices).
func (c *Catalog) TopN(n int) []File {
	out := make([]File, min(n, c.Len()))
	for i := range out {
		out[i] = c.File(i)
	}
	return out
}

// MeanSize returns the average file size, used to reproduce the "space
// used by distinct files" row of Table I.
func (c *Catalog) MeanSize() int64 {
	if c.Len() == 0 {
		return 0
	}
	var sum int64
	for _, s := range c.sizes {
		sum += s
	}
	return sum / int64(c.Len())
}
