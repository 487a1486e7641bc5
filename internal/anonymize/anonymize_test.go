package anonymize

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/logging"
)

func TestHashIPStableAndKeyed(t *testing.T) {
	a := NewIPHasher([]byte("campaign-secret"))
	b := NewIPHasher([]byte("campaign-secret"))
	c := NewIPHasher([]byte("other-secret"))
	ip := netip.MustParseAddr("192.0.2.7")
	if a.HashIP(ip) != b.HashIP(ip) {
		t.Error("same key must hash identically (step 2 depends on it)")
	}
	if a.HashIP(ip) == c.HashIP(ip) {
		t.Error("different keys must hash differently")
	}
	if a.HashIP(ip) == a.HashIP(netip.MustParseAddr("192.0.2.8")) {
		t.Error("different IPs must hash differently")
	}
	if p := a.HashIP(ip); p.Kind() != logging.PeerHashed || len(p.String()) != 16 {
		t.Errorf("hash %v of kind %d", p, p.Kind())
	}
}

// HashIP reuses one HMAC state; every call must still equal a freshly
// keyed HMAC-SHA256 over the 16-byte address, whatever was hashed before,
// and the hasher must not alias the caller's secret.
func TestHashIPMatchesFreshHMAC(t *testing.T) {
	key := []byte("campaign-secret")
	h := NewIPHasher(key)
	key[0] ^= 0xff // the caller's slice is not the hasher's key
	addrs := []string{"192.0.2.7", "10.0.0.1", "192.0.2.7", "2001:db8::1", "::ffff:192.0.2.7", "10.0.0.1"}
	for _, a := range addrs {
		addr := netip.MustParseAddr(a)
		mac := hmac.New(sha256.New, []byte("campaign-secret"))
		b := addr.As16()
		mac.Write(b[:])
		want := hex.EncodeToString(mac.Sum(nil))[:16]
		if got := h.HashIP(addr).String(); got != want {
			t.Errorf("HashIP(%s) = %s, want %s", a, got, want)
		}
	}
}

func TestHashIPAllocs(t *testing.T) {
	h := NewIPHasher([]byte("campaign"))
	ip := netip.MustParseAddr("198.51.100.23")
	if allocs := testing.AllocsPerRun(200, func() { h.HashIP(ip) }); allocs > 0 {
		t.Errorf("HashIP: %.1f allocs per call, want 0", allocs)
	}
}

func TestHashIPDoesNotRevealAddress(t *testing.T) {
	h := NewIPHasher([]byte("s"))
	ip := netip.MustParseAddr("203.0.113.99")
	out := h.HashIP(ip).String()
	if strings.Contains(out, "203") && strings.Contains(out, "113") {
		// Extremely unlikely by chance; mostly a tripwire for accidental
		// plain-text implementations.
		t.Errorf("hash %q suspiciously contains address fragments", out)
	}
	if _, err := netip.ParseAddr(out); err == nil {
		t.Error("hash parses as an IP address")
	}
}

func TestRenumbererFirstAppearanceOrder(t *testing.T) {
	r := NewRenumberer()
	a, b, c := logging.HashedPeer(0xaaa), logging.HashedPeer(0xbbb), logging.NumberedPeer(0xaaa)
	n := logging.NumberedPeer
	if r.Number(a) != n(0) || r.Number(b) != n(1) || r.Number(a) != n(0) || r.Number(c) != n(2) {
		t.Error("numbering must follow first appearance, keyed on the whole identity")
	}
	if r.Count() != 3 {
		t.Errorf("Count = %d", r.Count())
	}
}

// TestRenumbererKindsAndIdempotence: a hash and a number of the same
// value are two peers; numbers follow first appearance across both
// kinds, and Count counts both. Renumbering an export — already
// numbered in first-appearance order — reproduces its numbers.
func TestRenumbererKindsAndIdempotence(t *testing.T) {
	h, n := logging.HashedPeer, logging.NumberedPeer
	in := []logging.PeerID{h(7), n(7), h(3), n(0), h(7), n(7), n(3), h(0)}
	want := []logging.PeerID{n(0), n(1), n(2), n(3), n(0), n(1), n(4), n(5)}
	r := NewRenumberer()
	recs := make([]logging.Record, len(in)+1) // the last has no peer
	for i, p := range in {
		if got := r.Number(p); got != want[i] {
			t.Fatalf("Number(%v) = %v at step %d, want %v", p, got, i, want[i])
		}
		recs[i].PeerIP = p
	}
	if r.Count() != 6 {
		t.Fatalf("Count = %d, want 6", r.Count())
	}

	exported, err := logging.AppendAll(nil, NewRenumberer().RenumberIter(logging.NewSliceIter(recs)))
	if err != nil {
		t.Fatal(err)
	}
	again := NewRenumberer()
	reread, err := logging.AppendAll(nil, again.RenumberIter(logging.NewSliceIter(exported)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range exported {
		if i < len(want) && exported[i].PeerIP != want[i] {
			t.Fatalf("record %d exported as %v, want %v", i, exported[i].PeerIP, want[i])
		}
		if reread[i].PeerIP != exported[i].PeerIP {
			t.Fatalf("record %d: renumbering the export gave %v, the export holds %v", i, reread[i].PeerIP, exported[i].PeerIP)
		}
	}
	if !reread[len(in)].PeerIP.IsZero() || again.Count() != 6 {
		t.Fatalf("renumbering the export: last peer %v, Count %d; want none and 6", reread[len(in)].PeerIP, again.Count())
	}
}

func TestRenumberRecordsCoherentAcrossHoneypots(t *testing.T) {
	h := NewIPHasher([]byte("secret"))
	ipA := h.HashIP(netip.MustParseAddr("10.1.1.1"))
	ipB := h.HashIP(netip.MustParseAddr("10.2.2.2"))
	log1 := []logging.Record{{PeerIP: ipA, Honeypot: "hp-0"}, {PeerIP: ipB, Honeypot: "hp-0"}}
	log2 := []logging.Record{{PeerIP: ipB, Honeypot: "hp-1"}, {PeerIP: ipA, Honeypot: "hp-1"}}

	r := NewRenumberer()
	merged, err := logging.AppendAll(nil, r.RenumberIter(logging.NewSliceIter(append(log1, log2...))))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(); n != 2 {
		t.Fatalf("distinct peers = %d", n)
	}
	// Same original IP must map to the same number in both honeypot logs.
	if merged[0].PeerIP != merged[3].PeerIP {
		t.Errorf("ipA numbered %s and %s", merged[0].PeerIP, merged[3].PeerIP)
	}
	if merged[1].PeerIP != merged[2].PeerIP {
		t.Errorf("ipB numbered %s and %s", merged[1].PeerIP, merged[2].PeerIP)
	}
	if merged[0].PeerIP != logging.NumberedPeer(0) {
		t.Errorf("first peer numbered %s", merged[0].PeerIP)
	}
}

func TestRenumberSkipsEmpty(t *testing.T) {
	r := NewRenumberer()
	recs, err := logging.AppendAll(nil, r.RenumberIter(logging.NewSliceIter([]logging.Record{{}})))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(); n != 0 {
		t.Errorf("count = %d", n)
	}
	if !recs[0].PeerIP.IsZero() {
		t.Error("a zero PeerIP must stay zero")
	}
}

func TestSplitWordsAlternation(t *testing.T) {
	const name = "some.movie (2008)-final.avi"
	var words, seps []string
	for from := 0; from < len(name); {
		s, e := nextWord(name, from)
		seps = append(seps, name[from:s])
		if s < e {
			words = append(words, name[s:e])
		}
		from = e
	}
	if want := []string{"some", "movie", "2008", "final", "avi"}; !reflect.DeepEqual(words, want) {
		t.Errorf("words = %q, want %q", words, want)
	}
	if want := []string{"", ".", " (", ")-", "."}; !reflect.DeepEqual(seps, want) {
		t.Errorf("separators = %q, want %q", seps, want)
	}
	// Past the last word the scanner reports an empty run at the end.
	if s, e := nextWord("a..", 1); s != 3 || e != 3 {
		t.Errorf("nextWord past the last word = (%d, %d), want (3, 3)", s, e)
	}
}

func TestNameAnonymizerThreshold(t *testing.T) {
	a := NewNameAnonymizer(2)
	names := []string{
		"common.rareone.avi",
		"common.raretwo.avi",
		"common.common.mp3",
	}
	for _, n := range names {
		a.Observe(n)
	}
	// "common" appears 4 times, "avi" twice, "rareone"/"raretwo"/"mp3" once.
	got := a.Anonymize("common.rareone.avi")
	if !strings.HasPrefix(got, "common.") {
		t.Errorf("frequent word replaced: %q", got)
	}
	if strings.Contains(got, "rareone") {
		t.Errorf("rare word kept: %q", got)
	}
	if !strings.HasSuffix(got, ".avi") {
		t.Errorf("avi (freq 2) should be kept: %q", got)
	}
	// Coherence: the same rare word maps to the same token.
	if a.Anonymize("common.rareone.avi") != got {
		t.Error("anonymization not deterministic")
	}
	// Distinct rare words map to distinct tokens.
	other := a.Anonymize("common.raretwo.avi")
	if other == got {
		t.Error("distinct rare words collided")
	}
	if a.ReplacedWords() != 2 {
		t.Errorf("ReplacedWords = %d", a.ReplacedWords())
	}
}

func TestNameAnonymizerCaseInsensitive(t *testing.T) {
	a := NewNameAnonymizer(2)
	a.Observe("Word.x")
	a.Observe("word.y")
	if got := a.Anonymize("Word.x"); !strings.HasPrefix(got, "Word") {
		t.Errorf("case-insensitive counting failed: %q", got)
	}
}

func TestAnonymizeRecordNames(t *testing.T) {
	recs := []logging.Record{
		{FileName: "popular.secret1.avi"},
		{FileName: "popular.secret2.avi"},
		{Files: []logging.SharedFile{{Name: "popular.secret3.avi"}}},
	}
	a := NewNameAnonymizer(3)
	observeNames(a, recs)
	recs, err := logging.AppendAll(nil, a.AnonymizeIter(logging.NewSliceIter(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"secret1", "secret2"} {
		if strings.Contains(recs[i].FileName, want) {
			t.Errorf("record %d still contains %q: %q", i, want, recs[i].FileName)
		}
		if !strings.Contains(recs[i].FileName, "popular") {
			t.Errorf("record %d lost frequent word: %q", i, recs[i].FileName)
		}
	}
	if strings.Contains(recs[2].Files[0].Name, "secret3") {
		t.Errorf("shared list name not anonymized: %q", recs[2].Files[0].Name)
	}
}

// observeNames is pass 1 of filename anonymization over an in-memory
// dataset: every FileName and shared-list name is counted.
func observeNames(a *NameAnonymizer, recs []logging.Record) {
	for _, r := range recs {
		if r.FileName != "" {
			a.Observe(r.FileName)
		}
		for _, f := range r.Files {
			a.Observe(f.Name)
		}
	}
}

// audit runs the audit stage over an in-memory dataset.
func audit(recs []logging.Record) error {
	_, err := logging.AppendAll(nil, AuditIter(logging.NewSliceIter(recs)))
	return err
}

func TestAuditAcceptsPipelineOutput(t *testing.T) {
	h := NewIPHasher([]byte("k"))
	recs := []logging.Record{
		{PeerIP: h.HashIP(netip.MustParseAddr("10.0.0.1"))},
		{},
	}
	if err := audit(recs); err != nil {
		t.Errorf("hashed records must pass: %v", err)
	}
	recs, err := logging.AppendAll(nil, NewRenumberer().RenumberIter(logging.NewSliceIter(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if err := audit(recs); err != nil {
		t.Errorf("renumbered records must pass: %v", err)
	}
}

// Property: the full two-step pipeline is injective per campaign — two
// addresses get the same final number iff they are the same address.
func TestQuickPipelineInjective(t *testing.T) {
	h := NewIPHasher([]byte("prop"))
	r := NewRenumberer()
	seen := map[logging.PeerID]string{} // number -> address
	f := func(a, b, c, d byte) bool {
		ip := netip.AddrFrom4([4]byte{a, b, c, d})
		n := r.Number(h.HashIP(ip))
		if prev, ok := seen[n]; ok {
			return prev == ip.String()
		}
		seen[n] = ip.String()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: name anonymization never leaks a below-threshold word.
func TestQuickNoRareWordSurvives(t *testing.T) {
	f := func(words []string) bool {
		a := NewNameAnonymizer(2)
		var names []string
		for i, w := range words {
			name := fmt.Sprintf("unique%dzz%s.ext", i, sanitize(w))
			names = append(names, name)
			a.Observe(name)
		}
		for i, n := range names {
			got := a.Anonymize(n)
			if strings.Contains(got, fmt.Sprintf("unique%dzz", i)) {
				return false // each uniqueNzz... word appears once, must go
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r < 0x80 && isWordByte(byte(r)) {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func BenchmarkHashIP(b *testing.B) {
	h := NewIPHasher([]byte("campaign"))
	ip := netip.MustParseAddr("198.51.100.23")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.HashIP(ip)
	}
}

func BenchmarkRenumber100k(b *testing.B) {
	recs := make([]logging.Record, 100_000)
	h := NewIPHasher([]byte("x"))
	for i := range recs {
		ip := netip.AddrFrom4([4]byte{byte(i >> 16), byte(i >> 8), byte(i), 1})
		recs[i].PeerIP = h.HashIP(ip)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := logging.Each(NewRenumberer().RenumberIter(logging.NewSliceIter(recs)),
			func(*logging.Record) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming stages.

// drainAll pulls an iterator dry, returning records and the terminal
// error (nil for a clean io.EOF).
func drainAll(t *testing.T, it logging.Iterator) ([]logging.Record, error) {
	t.Helper()
	var out []logging.Record
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// TestStagesMatchSlicePipeline pins the streaming pipeline (renumber →
// observe/anonymize → audit) on a literal input: peers are numbered
// coherently in first-appearance order, exactly the below-threshold
// words are replaced, and the source records are never mutated.
func TestStagesMatchSlicePipeline(t *testing.T) {
	h := NewIPHasher([]byte("stage-secret"))
	var recs []logging.Record
	base := netip.MustParseAddr("10.0.0.0")
	names := []string{
		"popular.word.rareone.avi",
		"popular.word.raretwo.avi",
		"popular.word.mp3",
		"", // records without a file
	}
	addr := base
	for i := 0; i < 40; i++ {
		addr = addr.Next()
		if i%3 == 0 {
			addr = base // repeats: coherent renumbering matters
		}
		r := logging.Record{
			Honeypot: fmt.Sprintf("hp-%d", i%3),
			PeerIP:   h.HashIP(addr),
			FileName: names[i%len(names)],
		}
		if i%7 == 0 {
			r.Files = []logging.SharedFile{{Name: "popular.shared.rarethree.iso"}}
		}
		recs = append(recs, r)
	}
	src := make([]logging.Record, len(recs))
	copy(src, recs)

	// Every FileName word occurs at least 10 times; the shared list's
	// "shared", "rarethree" and "iso" 6 times each, below the threshold.
	ren := NewRenumberer()
	na := NewNameAnonymizer(7)
	observeNames(na, recs)
	got, err := drainAll(t, AuditIter(na.AnonymizeIter(ren.RenumberIter(logging.NewSliceIter(recs)))))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("streamed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		// Addresses cycle base, base+1, base+2: numbers 0, 1, 2.
		if want := logging.NumberedPeer(uint64(i % 3)); r.PeerIP != want {
			t.Fatalf("record %d numbered %v, want %v", i, r.PeerIP, want)
		}
		if r.FileName != names[i%len(names)] {
			t.Fatalf("record %d file name %q, want it kept as %q", i, r.FileName, names[i%len(names)])
		}
		if i%7 == 0 && (len(r.Files) != 1 || r.Files[0].Name != "popular.0.1.2") {
			t.Fatalf("record %d shared list %+v, want one name popular.0.1.2", i, r.Files)
		}
	}
	if ren.Count() != 3 {
		t.Fatalf("distinct peers: %d, want 3", ren.Count())
	}
	if na.ReplacedWords() != 3 {
		t.Fatalf("replaced words: %d, want 3", na.ReplacedWords())
	}
	// The streaming stages must not have touched the source records.
	if !reflect.DeepEqual(recs, src) {
		t.Fatal("source records rewritten in place")
	}
	for i := range recs {
		for j := range recs[i].Files {
			if recs[i].Files[j].Name != "popular.shared.rarethree.iso" {
				t.Fatalf("record %d source shared list mutated: %q", i, recs[i].Files[j].Name)
			}
		}
	}
}

// TestAnonymizeKeepsUnchangedNames: a name with no replaced word comes
// back as the same string, and a shared list whose names all stay is
// passed on without a copy; one changed name copies the list and leaves
// the source's alone.
func TestAnonymizeKeepsUnchangedNames(t *testing.T) {
	na := NewNameAnonymizer(2)
	kept, changed := "common.word.avi", "common.rare.avi"
	na.ObserveCount(kept, 2)
	na.ObserveCount(changed, 1)
	if got := na.Anonymize(kept); unsafe.StringData(got) != unsafe.StringData(kept) {
		t.Fatalf("Anonymize(%q) = a new string %q", kept, got)
	}
	if got := na.Anonymize(changed); got != "common.0.avi" {
		t.Fatalf("Anonymize(%q) = %q, want common.0.avi", changed, got)
	}
	same := []logging.SharedFile{{Name: kept}, {Name: kept}}
	mixed := []logging.SharedFile{{Name: kept}, {Name: changed}}
	got, err := drainAll(t, na.AnonymizeIter(logging.NewSliceIter([]logging.Record{{Files: same}, {Files: mixed}})))
	if err != nil {
		t.Fatal(err)
	}
	if &got[0].Files[0] != &same[0] {
		t.Error("a shared list with no changed name was copied")
	}
	if &got[1].Files[0] == &mixed[0] || got[1].Files[1].Name != "common.0.avi" || mixed[1].Name != changed {
		t.Errorf("a shared list with a changed name: got %+v, source now %+v", got[1].Files, mixed)
	}
}

// TestAuditIterPassThrough: clean records flow unchanged.
func TestAuditIterPassThrough(t *testing.T) {
	recs := []logging.Record{{PeerIP: logging.NumberedPeer(0)}, {}, {PeerIP: logging.HashedPeer(12)}}
	got, err := drainAll(t, AuditIter(logging.NewSliceIter(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("audit stage altered records")
	}
}

// ---------------------------------------------------------------------------
// Per-distinct-name path against a per-occurrence reference.

// naiveAnonymizer is the per-occurrence algorithm the NameAnonymizer must
// stay byte-identical to: every Observe and every Anonymize call decodes
// and tokenizes its name afresh, with no per-name state.
type naiveAnonymizer struct {
	threshold int
	freq      map[string]int
	mapping   map[string]string
}

// naiveSplit cuts a name into alternating word and separator runs,
// starting with a (possibly empty) word, decoding rune by rune (so each
// invalid byte becomes U+FFFD).
func naiveSplit(name string) []string {
	var parts []string
	var cur strings.Builder
	isWord := true
	for _, r := range name {
		w := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r >= 0x80
		if w != isWord {
			parts = append(parts, cur.String())
			cur.Reset()
			isWord = w
		}
		cur.WriteRune(r)
	}
	return append(parts, cur.String())
}

func (a *naiveAnonymizer) observe(name string) {
	for i, p := range naiveSplit(name) {
		if i%2 == 0 && p != "" {
			a.freq[strings.ToLower(p)]++
		}
	}
}

func (a *naiveAnonymizer) anonymize(name string) string {
	var b strings.Builder
	for i, p := range naiveSplit(name) {
		key := strings.ToLower(p)
		if i%2 == 1 || p == "" || a.freq[key] >= a.threshold {
			b.WriteString(p)
			continue
		}
		repl, ok := a.mapping[key]
		if !ok {
			repl = strconv.Itoa(len(a.mapping))
			a.mapping[key] = repl
		}
		b.WriteString(repl)
	}
	return b.String()
}

// randomCorpus draws records whose names come from a small pool (so names
// repeat) built from a small vocabulary in mixed case (so words repeat
// across names), with empty names and shared lists mixed in.
func randomCorpus(rng *rand.Rand) []logging.Record {
	vocab := []string{"alpha", "Beta", "GAMMA", "delta", "x264", "2008", "été", "日本語", "cd1", "a"}
	seps := []string{".", " ", "-", "_(", ")", "..", "[", "] "}
	pool := make([]string, 1+rng.Intn(12))
	for i := range pool {
		var b strings.Builder
		if rng.Intn(4) == 0 {
			b.WriteString(seps[rng.Intn(len(seps))]) // leading separator
		}
		for w := rng.Intn(5); w > 0; w-- {
			word := vocab[rng.Intn(len(vocab))]
			if rng.Intn(3) == 0 {
				word = strings.ToUpper(word)
			}
			b.WriteString(word)
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		pool[i] = b.String() // may be empty
	}
	recs := make([]logging.Record, rng.Intn(60))
	for i := range recs {
		if rng.Intn(5) > 0 {
			recs[i].FileName = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(6) == 0 {
			for n := rng.Intn(4); n > 0; n-- {
				recs[i].Files = append(recs[i].Files, logging.SharedFile{Name: pool[rng.Intn(len(pool))]})
			}
		}
	}
	return recs
}

// TestNameAnonymizerMatchesPerOccurrenceReference: on random corpora the
// streaming stages (counting per distinct name, rewriting through the
// memo) yield the reference's bytes, token assignment and replaced-word
// count, and leave the source untouched.
func TestNameAnonymizerMatchesPerOccurrenceReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := randomCorpus(rng)
		threshold := 1 + rng.Intn(3)

		ref := &naiveAnonymizer{threshold: threshold, freq: map[string]int{}, mapping: map[string]string{}}
		for _, r := range recs {
			if r.FileName != "" {
				ref.observe(r.FileName)
			}
			for _, f := range r.Files {
				ref.observe(f.Name)
			}
		}
		want := make([]logging.Record, len(recs))
		for i, r := range recs {
			want[i] = r
			if r.FileName != "" {
				want[i].FileName = ref.anonymize(r.FileName)
			}
			want[i].Files = nil
			for _, f := range r.Files {
				want[i].Files = append(want[i].Files, logging.SharedFile{Name: ref.anonymize(f.Name)})
			}
		}

		a := NewNameAnonymizer(threshold)
		observeNames(a, recs)
		got, err := drainAll(t, a.AnonymizeIter(logging.NewSliceIter(recs)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records out, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d threshold %d record %d (source %+v):\n got %+v\nwant %+v",
					seed, threshold, i, recs[i], got[i], want[i])
			}
		}
		if a.ReplacedWords() != len(ref.mapping) {
			t.Fatalf("seed %d: ReplacedWords = %d, reference %d", seed, a.ReplacedWords(), len(ref.mapping))
		}
		if !reflect.DeepEqual(a.mapping, ref.mapping) {
			t.Fatalf("seed %d: token assignment differs:\n got %v\nwant %v", seed, a.mapping, ref.mapping)
		}
	}
}

// TestNameAnonymizerInvalidUTF8AndMultiByte pins the bytes for names the
// byte-wise scanner could get wrong: every byte outside a valid UTF-8
// sequence is a word character that comes out as U+FFFD (one per byte),
// and multi-byte runes are word characters compared case-insensitively.
func TestNameAnonymizerInvalidUTF8AndMultiByte(t *testing.T) {
	names := []string{
		"film\xff\xfe.avi",  // two bad bytes inside a word
		"\xe2\x82.café.avi", // truncated 3-byte sequence, then é
		"CAFÉ.日本語.avi",
		"\xff",
		"\ufffd\ufffd.mkv", // already-valid replacement characters
	}
	a := NewNameAnonymizer(2)
	ref := &naiveAnonymizer{threshold: 2, freq: map[string]int{}, mapping: map[string]string{}}
	for _, n := range names {
		a.Observe(n)
		ref.observe(n)
	}
	want := []string{
		"0.avi",                 // film\ufffd\ufffd occurs once
		"\ufffd\ufffd.café.avi", // every word occurs twice or more (café ~ CAFÉ)
		"CAFÉ.1.avi",
		"2",
		"\ufffd\ufffd.3",
	}
	for i, n := range names {
		if got := ref.anonymize(n); got != want[i] {
			t.Fatalf("reference drifted on %q: %q, pinned %q", n, got, want[i])
		}
		for pass := 0; pass < 2; pass++ { // second pass is served from the memo
			if got := a.Anonymize(n); got != want[i] {
				t.Errorf("Anonymize(%q) pass %d = %q, want %q", n, pass, got, want[i])
			}
		}
	}
	if a.ReplacedWords() != 4 {
		t.Errorf("ReplacedWords = %d, want 4", a.ReplacedWords())
	}
}

// TestObserveAfterAnonymize: frequencies keep accumulating after the first
// rewrite, and a name rewritten under the old frequencies is rewritten
// again rather than served stale; tokens already assigned stay assigned.
func TestObserveAfterAnonymize(t *testing.T) {
	a := NewNameAnonymizer(2)
	a.Observe("common.once.avi")
	a.Observe("common.other.avi")
	if got := a.Anonymize("common.once.avi"); got != "common.0.avi" {
		t.Fatalf("first rewrite = %q", got)
	}
	a.Observe("once.more")
	if got := a.Anonymize("common.once.avi"); got != "common.once.avi" {
		t.Errorf("after a second sighting of \"once\": %q, want the word kept", got)
	}
	if got := a.Anonymize("once.more"); got != "once.1" {
		t.Errorf("new name = %q, want once.1", got)
	}
	if got := a.Anonymize("common.other.avi"); got != "common.2.avi" {
		t.Errorf("token numbering did not continue: %q", got)
	}
	if a.ReplacedWords() != 3 { // "once" keeps its mapping entry, as before
		t.Errorf("ReplacedWords = %d, want 3", a.ReplacedWords())
	}
}

// TestAuditVerdictsAndAllocs: the audit passes every kind a PeerID can
// hold — no peer, a step-1 hash, a step-2 number — and a record costs
// it no allocation.
func TestAuditVerdictsAndAllocs(t *testing.T) {
	kinds := []logging.PeerID{{}, NewIPHasher([]byte("k")).HashIP(netip.MustParseAddr("10.0.0.1")), logging.NumberedPeer(4711)}
	recs := make([]logging.Record, 3000)
	for i := range recs {
		recs[i].PeerIP = kinds[i%len(kinds)]
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := logging.Each(AuditIter(logging.NewSliceIter(recs)), func(*logging.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("auditing %d records allocates %v objects per run, want the stage's set-up only", len(recs), n)
	}
}

// TestRenumberKnownPeersAllocateNothing: a peer's records all carry the
// number assigned at its first sight, also when Number was called
// directly in between, and a known peer costs nothing per record.
func TestRenumberKnownPeersAllocateNothing(t *testing.T) {
	r := NewRenumberer()
	if r.Number(logging.HashedPeer(1<<40)) != logging.NumberedPeer(0) {
		t.Fatal("first number must be 0")
	}
	recs := make([]logging.Record, 600)
	for i := range recs {
		recs[i].PeerIP = logging.HashedPeer(uint64(i % 300))
	}
	out, err := drainAll(t, r.RenumberIter(logging.NewSliceIter(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range out {
		if want := logging.NumberedPeer(uint64(1 + i%300)); rec.PeerIP != want {
			t.Fatalf("record %d numbered %v, want %v", i, rec.PeerIP, want)
		}
	}
	// Known peers cost nothing per record: only the stage set-up allocates.
	if n := testing.AllocsPerRun(10, func() {
		err := logging.Each(r.RenumberIter(logging.NewSliceIter(recs)), func(*logging.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("renumbering %d records of known peers allocates %v objects", len(recs), n)
	}
}
