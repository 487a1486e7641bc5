package analysis

// This file is the columnar analysis engine: a campaign is compiled once
// into a Frame — a struct-of-arrays image of the merged log with every
// string column interned to a dense ID — and every figure extractor then
// runs over flat integer columns. The record-slice extractors of the
// reference subpackage are the reference implementations; the Frame
// versions return bit-identical results while replacing per-record map
// lookups and time.Time arithmetic with array indexing, and hash-map
// distinct-tracking with epoch-stamped dense arrays and bitsets. Each
// is a serial pass over the columns; Exec's pool is what runs queries
// side by side. Memory per record is 19 bytes
// regardless of string sizes; the peer table is 16 bytes per peer, with
// no map while the peers are step-2 numbers in first-seen order (every
// finalize stream and exported frame file: see peerTable). Per-extractor
// allocations are bounded by distinct counts and output size, never by
// campaign length.

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/ed2k"
	"repro/internal/intern"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/stats"
)

// NoPeer marks a record whose PeerIP was zero (connection-level events
// carry no peer identity).
const NoPeer = ^uint32(0)

// Frame is a campaign's merged log in columnar form. Build it once with
// BuildFrame or BuildFrameIter, then derive every table and figure from
// it; nothing in a Frame aliases the source records.
type Frame struct {
	times []int64  // reception time, unix nanoseconds
	kinds []uint8  // logging.Kind
	peers []uint32 // peer symbol, NoPeer when the record had no peer
	hps   []uint16 // honeypot symbol
	files []uint32 // concerned-file symbol (the zero hash interns too)

	peerTab peerTable
	hpTab   *intern.Table[string]
	fileTab *intern.Table[ed2k.Hash]

	// Shared-file lists (KindSharedList) are aggregated at build time:
	// one entry per distinct advertised hash, last-reported size winning,
	// exactly like ComputeTableI's map.
	sharedTab   *intern.Table[ed2k.Hash]
	sharedSizes []int64

	// The lazy query index is sync.Once-guarded: the query engine
	// (exec.go) runs extractors concurrently over one shared frame, and
	// it is the frame's only post-build mutation.
	pairsOnce sync.Once
	pairs     *queryIndex
}

func newFrame(capacity int) *Frame {
	return &Frame{
		times:     make([]int64, 0, capacity),
		kinds:     make([]uint8, 0, capacity),
		peers:     make([]uint32, 0, capacity),
		hps:       make([]uint16, 0, capacity),
		files:     make([]uint32, 0, capacity),
		hpTab:     intern.NewTable[string](),
		fileTab:   intern.NewTable[ed2k.Hash](),
		sharedTab: intern.NewTable[ed2k.Hash](),
	}
}

func (f *Frame) add(r *logging.Record) {
	f.times = append(f.times, r.Time.UnixNano())
	f.kinds = append(f.kinds, uint8(r.Kind))
	p := NoPeer
	if !r.PeerIP.IsZero() {
		p = f.peerTab.ID(r.PeerIP)
	}
	f.peers = append(f.peers, p)
	h := f.hpTab.ID(r.Honeypot)
	if h > math.MaxUint16 {
		panic("analysis: frame supports at most 65536 distinct honeypots")
	}
	f.hps = append(f.hps, uint16(h))
	f.files = append(f.files, f.fileTab.ID(r.FileHash))
	for i := range r.Files {
		sf := &r.Files[i]
		id := f.sharedTab.ID(sf.Hash)
		if int(id) == len(f.sharedSizes) {
			f.sharedSizes = append(f.sharedSizes, sf.Size)
		} else {
			f.sharedSizes[id] = sf.Size
		}
	}
}

// BuildFrame compiles a merged log into columnar form in one pass.
func BuildFrame(recs []logging.Record) *Frame {
	f := newFrame(len(recs))
	for i := range recs {
		f.add(&recs[i])
	}
	return f
}

// BuildFrameIter compiles a record stream — typically a campaign's
// finalize stream or a logstore iterator — into columnar form without
// ever materializing the records. Memory use is the frame itself: 19
// bytes per record plus the intern tables. A source that reports its
// length (logging.Len) gets its columns allocated once, at that length.
//
// A logstore.Iterator that nothing wraps is read the cheapest way it
// offers, before its scan starts. First its store's frame file
// (SaveFrame): when the store binds it to exactly the segments the scan
// would read and this codec accepts it, the frame is loaded from its
// columns and no record is decoded. Otherwise — no file, a stale or
// damaged one, another version — the scan runs as if there were none,
// told to DropText, the text the frame never keeps. Either way the frame
// is the one a scan builds, reflect.DeepEqual to it. A wrapping stage
// (logging.Map, ReadAhead, a finalize stream) hides both capabilities.
func BuildFrameIter(it logging.Iterator) (*Frame, error) {
	f, _, err := buildFrameIter(it)
	return f, err
}

// ViaFrameFile is OpenFrame's account of a frame loaded from its store's
// frame file.
const ViaFrameFile = "frame file"

// buildFrameIter is BuildFrameIter that also says how the frame was
// built: ViaFrameFile, or "scan (<why the frame file was not loaded>)".
func buildFrameIter(it logging.Iterator) (*Frame, string, error) {
	via := "scan (the source offers no frame file)"
	if ff, ok := it.(frameFiler); ok {
		f, err := loadFrameFile(ff, logging.Len(it))
		if err == nil {
			return f, ViaFrameFile, nil
		}
		via = "scan (" + err.Error() + ")"
	}
	if d, ok := it.(interface{ DropText() bool }); ok {
		d.DropText()
	}
	f := newFrame(logging.Len(it))
	err := logging.Each(it, func(r *logging.Record) error {
		f.add(r)
		return nil
	})
	if err != nil {
		return nil, via, err
	}
	return f, via, nil
}

// OpenFrame reopens the logstore under dir — a campaign's raw spill or
// its anonymized export — and builds its frame with BuildFrameIter: the
// one way a finished campaign's dataset is read back for analysis. An
// export a campaign wrote carries its frame file, so this loads columns;
// a raw spill store, an hpmanager export or a store appended to since
// has none that binds, and is scanned. It also says which path built
// the frame: ViaFrameFile, or "scan (<why the frame file was not
// loaded>)". A missing directory is an error, not an empty store.
func OpenFrame(dir string) (*Frame, string, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, "", fmt.Errorf("analysis: opening frame: %w", err)
	}
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		return nil, "", err
	}
	defer store.Close()
	it, err := store.Iterator()
	if err != nil {
		return nil, "", err
	}
	defer it.Close()
	return buildFrameIter(it)
}

// Len returns the number of records in the frame.
func (f *Frame) Len() int { return len(f.times) }

// Equal reports whether f and g hold the same records in the same
// columnar form: every column, every intern table in first-seen order
// and the shared-file sizes. The lazily built caches are not compared,
// so Equal may run while queries execute over either frame.
func (f *Frame) Equal(g *Frame) bool {
	return slices.Equal(f.times, g.times) && slices.Equal(f.kinds, g.kinds) &&
		slices.Equal(f.peers, g.peers) && slices.Equal(f.hps, g.hps) &&
		slices.Equal(f.files, g.files) &&
		slices.Equal(f.peerTab.Values(), g.peerTab.Values()) &&
		slices.Equal(f.hpTab.Values(), g.hpTab.Values()) &&
		slices.Equal(f.fileTab.Values(), g.fileTab.Values()) &&
		slices.Equal(f.sharedTab.Values(), g.sharedTab.Values()) &&
		slices.Equal(f.sharedSizes, g.sharedSizes)
}

// DistinctPeers returns the number of distinct peer identifiers.
func (f *Frame) DistinctPeers() int { return f.peerTab.Len() }

// peerNumber returns peer symbol p's step-2 number; ok is false for no
// peer and for a step-1 hash.
func (f *Frame) peerNumber(p uint32) (n int64, ok bool) {
	if p == NoPeer {
		return 0, false
	}
	id := f.peerTab.Value(p)
	return int64(id.Value()), id.Kind() == logging.PeerNumbered
}

// TableI derives the frame's row of the paper's Table I. O(distinct
// files) time; the distinct-peer count is the intern table's size.
func (f *Frame) TableI(honeypots, days, sharedFiles int) TableI {
	var space int64
	for _, sz := range f.sharedSizes {
		space += sz
	}
	return TableI{
		Honeypots:     honeypots,
		DurationDays:  days,
		SharedFiles:   sharedFiles,
		DistinctPeers: f.peerTab.Len(),
		DistinctFiles: f.sharedTab.Len(),
		SpaceBytes:    space,
	}
}

// PeerGrowth computes Figs 2-3 from the frame: first-seen days live in a
// flat array indexed by peer symbol instead of a map keyed by string.
func (f *Frame) PeerGrowth(start time.Time, days int) stats.GrowthCurve {
	tr := stats.NewDenseDistinctTracker(start, Day, days, f.peerTab.Len())
	for i, p := range f.peers {
		if p != NoPeer {
			tr.ObserveNano(f.times[i], int(p))
		}
	}
	return tr.Curve()
}

// HourlyHello computes Fig 4 from the frame.
func (f *Frame) HourlyHello(start time.Time, hours int) []int {
	counts := make([]int, hours)
	startNs := start.UnixNano()
	hourNs := int64(time.Hour)
	for i, k := range f.kinds {
		if logging.Kind(k) != logging.KindHello {
			continue
		}
		t := f.times[i]
		if t < startNs {
			continue
		}
		if h := (t - startNs) / hourNs; h < int64(hours) {
			counts[h]++
		}
	}
	return counts
}

// groupIndex resolves the honeypot→group mapping once per extraction:
// hpGroup[hp symbol] is a dense group index or -1, names lists the group
// names by index in first-encountered honeypot-symbol order.
func (f *Frame) groupIndex(groupOf map[string]string) (hpGroup []int32, names []string) {
	hpGroup = make([]int32, f.hpTab.Len())
	idx := make(map[string]int, 4)
	for id, hp := range f.hpTab.Values() {
		g, ok := groupOf[hp]
		if !ok {
			hpGroup[id] = -1
			continue
		}
		gi, ok := idx[g]
		if !ok {
			gi = len(names)
			idx[g] = gi
			names = append(names, g)
		}
		hpGroup[id] = int32(gi)
	}
	return hpGroup, names
}

// GroupDistinctPeers computes Figs 5-6 from the frame. Distinct (group,
// peer) pairs are tracked in one flat first-seen array per group.
func (f *Frame) GroupDistinctPeers(groupOf map[string]string, kind logging.Kind, start time.Time, days int) GroupSeries {
	hpGroup, names := f.groupIndex(groupOf)
	startNs := start.UnixNano()
	dayNs := int64(Day)
	k8 := uint8(kind)
	first := make([][]int32, len(names)) // allocated on a group's first hit
	for i, k := range f.kinds {
		if k != k8 || f.peers[i] == NoPeer {
			continue
		}
		gi := hpGroup[f.hps[i]]
		if gi < 0 {
			continue
		}
		t := f.times[i]
		if t < startNs {
			continue
		}
		d := (t - startNs) / dayNs
		if d >= int64(days) {
			continue
		}
		fg := first[gi]
		if fg == nil {
			fg = make([]int32, f.peerTab.Len())
			for j := range fg {
				fg[j] = -1
			}
			first[gi] = fg
		}
		p := f.peers[i]
		if fg[p] < 0 || int32(d) < fg[p] {
			fg[p] = int32(d)
		}
	}
	out := GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	for gi, fg := range first {
		if fg == nil {
			continue
		}
		news := make([]int, days)
		for _, d := range fg {
			if d >= 0 {
				news[d]++
			}
		}
		out.Groups[names[gi]] = stats.CumulativeInts(news)
	}
	return out
}

// GroupMessageCounts computes Fig 7 from the frame.
func (f *Frame) GroupMessageCounts(groupOf map[string]string, kind logging.Kind, start time.Time, days int) GroupSeries {
	return f.groupDailyCounts(groupOf, kind, start, days, false, NoPeer)
}

// groupDailyCounts counts kind's records per group and day from start,
// cumulated. With onePeer it counts only the records of peer symbol
// peer (NoPeer: the records without a peer).
func (f *Frame) groupDailyCounts(groupOf map[string]string, kind logging.Kind, start time.Time, days int, onePeer bool, peer uint32) GroupSeries {
	hpGroup, names := f.groupIndex(groupOf)
	startNs := start.UnixNano()
	dayNs := int64(Day)
	k8 := uint8(kind)
	perDay := make([][]int, len(names))
	for i, k := range f.kinds {
		if k != k8 || onePeer && f.peers[i] != peer {
			continue
		}
		gi := hpGroup[f.hps[i]]
		if gi < 0 {
			continue
		}
		t := f.times[i]
		if t < startNs {
			continue
		}
		d := (t - startNs) / dayNs
		if d >= int64(days) {
			continue
		}
		if perDay[gi] == nil {
			perDay[gi] = make([]int, days)
		}
		perDay[gi][d]++
	}
	out := GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	for gi, xs := range perDay {
		if xs == nil {
			continue
		}
		out.Groups[names[gi]] = stats.CumulativeInts(xs)
	}
	return out
}

// TopPeer finds the peer with the most queries (HELLO + START-UPLOAD +
// REQUEST-PART) via one dense counting array; ties break toward the
// lexicographically smallest text form ("10" before "9"), as in
// stats.TopKey.
func (f *Frame) TopPeer() (string, int) {
	counts := make([]int, f.peerTab.Len())
	for i, k := range f.kinds {
		switch logging.Kind(k) {
		case logging.KindHello, logging.KindStartUpload, logging.KindRequestPart:
			if p := f.peers[i]; p != NoPeer {
				counts[p]++
			}
		}
	}
	var best, text []byte
	bestN := 0
	for id, n := range counts {
		if n == 0 || n < bestN {
			continue
		}
		text, _ = f.peerTab.Value(uint32(id)).AppendText(text[:0])
		if n > bestN || string(text) < string(best) {
			best, text, bestN = text, best, n
		}
	}
	return string(best), bestN
}

// TopPeerSeries computes Figs 8-9 from the frame.
func (f *Frame) TopPeerSeries(groupOf map[string]string, peer string, kind logging.Kind, start time.Time, days int) GroupSeries {
	target, ok := NoPeer, peer == "" // "" matches records without a peer
	var id logging.PeerID
	if !ok && id.UnmarshalText([]byte(peer)) == nil {
		target, ok = f.peerTab.Lookup(id)
	}
	if !ok {
		return GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	}
	return f.groupDailyCounts(groupOf, kind, start, days, true, target)
}

// peerSetCollector accumulates distinct step-2 peer numbers per unit
// (honeypot or file) for the Fig 10-12 subset estimators. When the
// numbers are dense — no more bitset words than the rows that carry
// them, which the step-2 renumbering guarantees — it uses one bitset per
// unit; otherwise it degrades to per-unit hash sets with the reference
// implementation's semantics.
type peerSetCollector struct {
	words   int
	bits    []uint64 // units × words, nil in map mode
	sets    [][]int32
	fallbak []map[int32]bool
}

// bitsetWordLimit bounds the dense path's total footprint — units ×
// words ≤ 2^23 words (64 MiB) — so a wide unit set over a large number
// universe degrades to hash sets instead of one huge allocation.
const bitsetWordLimit = 1 << 23

func newPeerSetCollector(units int, maxID, matched int64) *peerSetCollector {
	c := &peerSetCollector{sets: make([][]int32, units)}
	words := maxID/64 + 1
	if words <= matched+1 && words*int64(units) <= bitsetWordLimit {
		c.words = int(words)
		c.bits = make([]uint64, units*c.words)
	} else {
		c.fallbak = make([]map[int32]bool, units)
	}
	return c
}

func (c *peerSetCollector) observe(unit int, n int64) {
	if c.bits != nil {
		w, b := c.words*unit+int(n/64), uint64(1)<<uint(n%64)
		if c.bits[w]&b == 0 {
			c.bits[w] |= b
			c.sets[unit] = append(c.sets[unit], int32(n))
		}
		return
	}
	m := c.fallbak[unit]
	if m == nil {
		m = map[int32]bool{}
		c.fallbak[unit] = m
	}
	m[int32(n)] = true
}

func (c *peerSetCollector) finish() [][]int32 {
	if c.bits == nil {
		for u, m := range c.fallbak {
			s := make([]int32, 0, len(m))
			for n := range m {
				s = append(s, n)
			}
			c.sets[u] = s
		}
	}
	for u := range c.sets {
		if c.sets[u] == nil {
			c.sets[u] = []int32{} // reference impl returns empty, not nil
		}
		slices.Sort(c.sets[u])
	}
	return c.sets
}

// peerSets builds one distinct peer-number set per unit over the rows
// match accepts, match naming the row's unit and peer number: a bounds
// pass sizes the collector, a collect pass fills it. A number outside
// [0, 2³¹) is not observed (see PeerSets).
func (f *Frame) peerSets(units int, match func(i int) (unit int, n int64, ok bool)) (sets [][]int32, universe int) {
	maxID, matched := int64(-1), int64(0)
	for i := range f.peers {
		if _, n, ok := match(i); ok && uint64(n) <= math.MaxInt32 {
			maxID, matched = max(maxID, n), matched+1
		}
	}
	c := newPeerSetCollector(units, maxID, matched)
	for i := range f.peers {
		if unit, n, ok := match(i); ok && uint64(n) <= math.MaxInt32 {
			c.observe(unit, n)
		}
	}
	return c.finish(), int(maxID) + 1
}

// HoneypotPeerSets builds Fig 10's per-honeypot distinct peer-number
// sets from the frame, tracking distinctness in one bitset per honeypot.
func (f *Frame) HoneypotPeerSets(honeypotIDs []string) (sets [][]int32, universe int) {
	pos := make([]int32, f.hpTab.Len())
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range honeypotIDs {
		if sym, ok := f.hpTab.Lookup(id); ok {
			pos[sym] = int32(i)
		}
	}
	return f.peerSets(len(honeypotIDs), func(i int) (int, int64, bool) {
		hi := pos[f.hps[i]]
		n, ok := f.peerNumber(f.peers[i])
		return int(hi), n, ok && hi >= 0
	})
}

// FilePeerSets builds Figs 11-12's per-file distinct peer-number sets
// from the frame (START-UPLOAD / REQUEST-PART records only).
func (f *Frame) FilePeerSets(files []ed2k.Hash) (sets [][]int32, universe int) {
	pos := make([]int32, f.fileTab.Len())
	for i := range pos {
		pos[i] = -1
	}
	for i, h := range files {
		if sym, ok := f.fileTab.Lookup(h); ok {
			pos[sym] = int32(i)
		}
	}
	return f.peerSets(len(files), func(i int) (int, int64, bool) {
		k := logging.Kind(f.kinds[i])
		if k != logging.KindStartUpload && k != logging.KindRequestPart {
			return 0, 0, false
		}
		fi := pos[f.files[i]]
		n, ok := f.peerNumber(f.peers[i])
		return int(fi), n, ok && fi >= 0
	})
}

// queryIndex is the file-grouped view of the query records, cached on
// the frame: off[sym]/cnt[sym] slice peers into file sym's
// (non-distinct) querying peer symbols.
type queryIndex struct {
	peers []uint32
	off   []int32
	cnt   []int32
}

// queryPairs gathers the query records of the interest analyses (Figs
// 11-12's ranking and the §V co-interest statistics): START-UPLOAD and
// REQUEST-PART records with a peer and a non-zero file, grouped by file
// symbol via a counting sort. The index is computed once per frame and
// shared by QueriedFiles and InterestStats; safe under concurrent
// extractions.
func (f *Frame) queryPairs() (groupedPeers []uint32, perFileOff []int32, perFileCnt []int32) {
	f.pairsOnce.Do(f.buildQueryPairs)
	return f.pairs.peers, f.pairs.off, f.pairs.cnt
}

func (f *Frame) buildQueryPairs() {
	zeroSym, hasZero := f.fileTab.Lookup(ed2k.Hash{})
	match := func(i int) bool {
		k := logging.Kind(f.kinds[i])
		if k != logging.KindStartUpload && k != logging.KindRequestPart {
			return false
		}
		if f.peers[i] == NoPeer {
			return false
		}
		return !hasZero || f.files[i] != zeroSym
	}
	// Counting sort: per-file counts, their prefix offsets, then a fill
	// in row order.
	cnt := make([]int32, f.fileTab.Len())
	for i := range f.kinds {
		if match(i) {
			cnt[f.files[i]]++
		}
	}
	off := make([]int32, len(cnt))
	run := int32(0)
	for s, c := range cnt {
		off[s] = run
		run += c
	}
	grouped := make([]uint32, run)
	fill := slices.Clone(off)
	for i := range f.kinds {
		if match(i) {
			fs := f.files[i]
			grouped[fill[fs]] = f.peers[i]
			fill[fs]++
		}
	}
	f.pairs = &queryIndex{peers: grouped, off: off, cnt: cnt}
}

// QueriedFiles ranks queried files by distinct peers from the frame,
// identically to the record-slice reference.
func (f *Frame) QueriedFiles() []FilePopularity {
	grouped, off, cnt := f.queryPairs()
	mark := make([]int32, f.peerTab.Len())
	for i := range mark {
		mark[i] = -1
	}
	var out []FilePopularity
	for sym, c := range cnt {
		if c == 0 {
			continue
		}
		distinct := 0
		for _, p := range grouped[off[sym] : off[sym]+c] {
			if mark[p] != int32(sym) {
				mark[p] = int32(sym)
				distinct++
			}
		}
		out = append(out, FilePopularity{Hash: f.fileTab.Value(uint32(sym)), Peers: distinct})
	}
	strs := make([]string, len(out))
	for i := range out {
		strs[i] = out[i].Hash.String()
	}
	sort.Sort(&popSorter{out: out, strs: strs})
	return out
}

type popSorter struct {
	out  []FilePopularity
	strs []string
}

func (s *popSorter) Len() int { return len(s.out) }
func (s *popSorter) Less(a, b int) bool {
	if s.out[a].Peers != s.out[b].Peers {
		return s.out[a].Peers > s.out[b].Peers
	}
	return s.strs[a] < s.strs[b]
}
func (s *popSorter) Swap(a, b int) {
	s.out[a], s.out[b] = s.out[b], s.out[a]
	s.strs[a], s.strs[b] = s.strs[b], s.strs[a]
}
