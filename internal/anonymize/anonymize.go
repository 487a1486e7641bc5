// Package anonymize implements the paper's privacy pipeline (its §III-C)
// as composable streaming stages over logging.Iterator, so the published
// dataset of an arbitrarily large campaign is produced without ever
// holding the merged log in memory:
//
//  1. Each honeypot encodes peer IP addresses with a keyed one-way hash
//     (IPHasher) before anything is written to disk or sent to the
//     manager. The key is shared campaign-wide so the same address hashes
//     identically at every honeypot, which step 2 requires.
//  2. The manager replaces each hash value — coherently across all
//     honeypot logs — by a small integer in order of first appearance
//     (Renumberer.Renumber, applied to each record as the merged logs
//     stream past), defeating the 2^32 dictionary attack the paper
//     warns about.
//  3. File names are anonymized by replacing every word that appears less
//     often than a threshold with an integer token (NameAnonymizer), an
//     explicitly two-pass stage: Observe counts the occurrences of each
//     distinct name over a first pass (or ObserveCount takes them from a
//     source that kept count as it was written, as the manager's store
//     does), AnonymizeIter rewrites names on the second pass. Names are
//     tokenized once per distinct name, not per occurrence: the counts
//     fold into corpus-wide word frequencies before the first rewrite,
//     and each distinct name is rewritten once and served from a memo
//     afterwards. State is O(distinct names + distinct words); the
//     names are the strings the scan's intern pool already holds.
//  4. AuditIter is a pass-through verifier: records flow unchanged while
//     every PeerIP's kind is checked; a failure aborts the stream with an
//     error naming the offending record. A raw address never gets
//     this far: a logging.PeerID has no form for one, so a record
//     carrying one fails to decode wherever it enters (the control
//     plane's JSON, a JSONL file).
//
// An in-memory dataset runs the same stages over logging.NewSliceIter.
package anonymize

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/logging"
)

// IPHasher is the step-1 anonymizer held by each honeypot. The honeypot
// hashes a peer's address once per session, when the connection is
// accepted and before any record of that session exists, and stamps the
// result into each of the session's records — so nothing appended to a
// log or sent to the manager ever carried a raw address (the paper's
// step 1), and no table of raw addresses outlives a session.
//
// An IPHasher holds one keyed HMAC state that HashIP resets per call: it
// is not safe for concurrent use. Its one owner, a honeypot, runs on a
// single transport host executor.
type IPHasher struct {
	mac  hash.Hash
	addr [16]byte
	sum  [sha256.Size]byte
}

// NewIPHasher builds a hasher from the campaign secret. Every honeypot of
// a campaign must receive the same secret.
func NewIPHasher(secret []byte) *IPHasher {
	return &IPHasher{mac: hmac.New(sha256.New, secret)}
}

// HashIP returns the anonymized form of addr: the first 8 bytes of
// HMAC-SHA256(key, addr), big-endian. One-way, keyed, and stable
// campaign-wide.
func (h *IPHasher) HashIP(addr netip.Addr) logging.PeerID {
	h.mac.Reset()
	h.addr = addr.As16()
	h.mac.Write(h.addr[:])
	sum := h.mac.Sum(h.sum[:0])
	return logging.HashedPeer(binary.BigEndian.Uint64(sum[:8]))
}

// Renumberer is the manager's step-2 pass: peer identities become
// integers in first-appearance order, coherently across all logs fed to
// it. It keys on the whole identity — one map per kind, each keyed by
// the 64-bit value — so an earlier run's numbers are renumbered like
// any hash, and a hash never meets a number of the same value.
type Renumberer struct {
	hashed, numbered map[uint64]uint64
}

// NewRenumberer returns an empty renumberer.
func NewRenumberer() *Renumberer {
	return &Renumberer{hashed: make(map[uint64]uint64), numbered: make(map[uint64]uint64)}
}

// Number returns the step-2 identity assigned to p, allocating the next
// number on first sight. p names a peer: a step-1 hash or a number.
func (r *Renumberer) Number(p logging.PeerID) logging.PeerID {
	m := r.hashed
	if p.Kind() == logging.PeerNumbered {
		m = r.numbered
	}
	n, ok := m[p.Value()]
	if !ok {
		n = uint64(r.Count())
		m[p.Value()] = n
	}
	return logging.NumberedPeer(n)
}

// Count returns how many distinct identities were seen.
func (r *Renumberer) Count() int { return len(r.hashed) + len(r.numbered) }

// Renumber rewrites rec's peer to its step-2 identity; a record without
// a peer keeps none.
func (r *Renumberer) Renumber(rec *logging.Record) {
	if !rec.PeerIP.IsZero() {
		rec.PeerIP = r.Number(rec.PeerIP)
	}
}

// ---------------------------------------------------------------------------
// Filename anonymization.

// NameAnonymizer replaces rare words in file names with integer tokens.
// It is a two-pass stage: frequencies must be corpus-wide, so every name
// is observed (pass 1) before any name is rewritten (pass 2). Both passes
// tokenize per distinct name: Observe only counts occurrences, which fold
// into word frequencies before the next rewrite, and Anonymize memoizes
// each name's rewritten form. State is O(distinct names + distinct words).
type NameAnonymizer struct {
	threshold int
	observed  map[string]int // occurrences per name not yet folded into freq
	freq      map[string]int
	mapping   map[string]string // rare word → token, numbered in assignment order
	rewritten map[string]string // name → anonymized form under the current freq
}

// NewNameAnonymizer builds an anonymizer replacing words occurring fewer
// than threshold times.
func NewNameAnonymizer(threshold int) *NameAnonymizer {
	return &NameAnonymizer{
		threshold: threshold,
		observed:  make(map[string]int),
		freq:      make(map[string]int),
		mapping:   make(map[string]string),
		rewritten: make(map[string]string),
	}
}

// nextWord returns the bounds of the first word run of name at or after
// from; start == end == len(name) when there is none. name[from:start] is
// the separator run before it. A word run is ASCII alphanumerics and
// every byte of a non-ASCII rune, so the scan needs no decoding.
func nextWord(name string, from int) (start, end int) {
	start = from
	for start < len(name) && !isWordByte(name[start]) {
		start++
	}
	end = start
	for end < len(name) && isWordByte(name[end]) {
		end++
	}
	return start, end
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c >= 0x80
}

// validName returns name with every byte that is not part of a valid
// UTF-8 sequence replaced by U+FFFD, one per byte — the form word keys
// and rewritten names carry.
func validName(name string) string {
	if utf8.ValidString(name) {
		return name
	}
	return string([]rune(name))
}

// Observe counts one occurrence of a file name. All names must be
// observed before any call to Anonymize so frequencies are corpus-wide.
func (a *NameAnonymizer) Observe(name string) { a.observed[name]++ }

// ObserveCount counts n occurrences of a file name at once — the form in
// which a source that already keeps per-name counts (logstore's names
// sidecars) hands over its corpus without replaying it.
func (a *NameAnonymizer) ObserveCount(name string, n int) { a.observed[name] += n }

// foldObserved adds the words of every name observed since the last fold
// to the corpus frequencies, each weighted by the name's occurrences.
// New frequencies can move a word across the threshold, so the rewritten
// forms memoized under the old ones are dropped.
func (a *NameAnonymizer) foldObserved() {
	for name, n := range a.observed {
		name = validName(name)
		for s, e := nextWord(name, 0); s < e; s, e = nextWord(name, e) {
			a.freq[strings.ToLower(name[s:e])] += n
		}
	}
	clear(a.observed)
	clear(a.rewritten)
}

// Anonymize rewrites a name, replacing below-threshold words coherently.
// Tokens are assigned in order of first encounter across calls.
func (a *NameAnonymizer) Anonymize(name string) string {
	if len(a.observed) > 0 {
		a.foldObserved()
	}
	out, ok := a.rewritten[name]
	if !ok {
		out = a.rewrite(validName(name))
		a.rewritten[name] = out
	}
	return out
}

// rewrite tokenizes one name and replaces its below-threshold words. A
// name none of whose words is replaced is returned as it is, so the
// common case allocates nothing.
func (a *NameAnonymizer) rewrite(name string) string {
	var b strings.Builder
	done := 0 // name[:done] is in b
	for from := 0; from < len(name); {
		s, e := nextWord(name, from)
		if s < e {
			if pub := a.published(name[s:e]); pub != name[s:e] {
				b.WriteString(name[done:s])
				b.WriteString(pub)
				done = e
			}
		}
		from = e
	}
	if done == 0 {
		return name
	}
	b.WriteString(name[done:])
	return b.String()
}

// published returns word itself when it is frequent enough, else its
// token, assigned on first need.
func (a *NameAnonymizer) published(word string) string {
	key := strings.ToLower(word)
	if a.freq[key] >= a.threshold {
		return word
	}
	repl, ok := a.mapping[key]
	if !ok {
		repl = strconv.Itoa(len(a.mapping))
		a.mapping[key] = repl
	}
	return repl
}

// AnonymizeIter is pass 2 of the streaming stage: records flow through
// with every file name rewritten under the frequencies observed so
// far. A shared list is cloned at its first name that changes, so the
// source's records are never mutated — a re-iterable source stays
// pristine for further passes — and a list that keeps every name is
// passed on as it is.
func (a *NameAnonymizer) AnonymizeIter(src logging.Iterator) logging.Iterator {
	return logging.Map(src, func(r *logging.Record) error {
		if r.FileName != "" {
			r.FileName = a.Anonymize(r.FileName)
		}
		var files []logging.SharedFile
		for i := range r.Files {
			name := a.Anonymize(r.Files[i].Name)
			if name == r.Files[i].Name {
				continue
			}
			if files == nil {
				files = slices.Clone(r.Files)
			}
			files[i].Name = name
		}
		if files != nil {
			r.Files = files
		}
		return nil
	})
}

// ReplacedWords returns how many distinct words were replaced so far.
func (a *NameAnonymizer) ReplacedWords() int { return len(a.mapping) }

// ---------------------------------------------------------------------------
// Audit.

// AuditIter is the pass-through verifier stage: records flow through
// unchanged while every PeerIP's kind is checked; the first that is
// none of no peer, a step-1 hash and a step-2 number aborts the stream
// with an error naming the record.
func AuditIter(src logging.Iterator) logging.Iterator {
	i := 0
	return logging.Map(src, func(r *logging.Record) error {
		switch r.PeerIP.Kind() {
		case logging.PeerNone, logging.PeerHashed, logging.PeerNumbered:
			i++
			return nil
		}
		return fmt.Errorf("anonymize: record %d (honeypot %q) has a peer_ip of unknown kind %d", i, r.Honeypot, r.PeerIP.Kind())
	})
}
