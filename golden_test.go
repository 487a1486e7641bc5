package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/logging"
	"repro/internal/logstore"
)

// The golden table pins the determinism contract: for every registered
// scenario, the same spec and seed give the same dataset, the same
// report and the same event count, run after run and change after
// change. Rewriting it with -update is a statement that a change means
// to alter what campaigns produce; such a change must say why.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this tree")

const goldenFile = "testdata/golden.json"

// goldenRow is one campaign's pinned outcome.
type goldenRow struct {
	// Dataset is the sha256 of the finalized records, in order, in
	// their logging.EncodeRecord form, followed by the dataset's
	// DistinctPeers, ReplacedWords and PerHoneypot.
	Dataset string `json:"dataset"`
	// Report is the sha256 of the campaign's full paper report as JSON.
	Report string `json:"report"`
	// Events is the number of simulation events the campaign executed.
	// Every collection mode runs the same events: each honeypot logs
	// into a logstore shard, in the manager's store unless its link
	// flaps, whatever store backs the manager.
	Events uint64 `json:"events"`
}

// goldenMode is one of the four ways each scenario runs.
type goldenMode struct {
	name       string
	seedOffset int64
	stream     bool // finalize through the stream into an export store
	store      bool // spill collection into a raw logstore
}

// The modes of each scenario.
var (
	goldenMemory       = goldenMode{name: "memory"}
	goldenMemoryStream = goldenMode{name: "memory-stream", stream: true}
	goldenStoreStream  = goldenMode{name: "store-stream", stream: true, store: true}
	goldenNextSeed     = goldenMode{name: "memory-next-seed", seedOffset: 1}
)

// goldenModes lists the runs of each scenario. The first three share
// the registered seed, so they must also share their dataset and report
// digests and their event count.
var goldenModes = []goldenMode{goldenMemory, goldenMemoryStream, goldenStoreStream, goldenNextSeed}

// datasetDigest hashes the records in order plus the dataset's
// aggregate statistics.
func datasetDigest(recs []logging.Record, res *repro.Result) string {
	h := sha256.New()
	var buf []byte
	for _, r := range recs {
		buf = logging.EncodeRecord(buf[:0], r)
		h.Write(buf)
	}
	agg, err := json.Marshal(struct {
		DistinctPeers, ReplacedWords int
		PerHoneypot                  map[string]int
	}{res.Dataset.DistinctPeers, res.Dataset.ReplacedWords, res.Dataset.PerHoneypot})
	if err != nil {
		panic(err)
	}
	h.Write(agg)
	return hex.EncodeToString(h.Sum(nil))
}

func reportDigest(t *testing.T, rep *repro.Report) string {
	t.Helper()
	b, err := json.Marshal(*rep)
	if err != nil {
		t.Fatalf("encoding report: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// campaign is one scenario's run in one golden mode. TestGoldenDigests,
// TestFinalizeStreamMatchesMaterializedOnAllScenarios,
// TestAnalyzePlanMatchesSerialReference and
// TestEveryReadPathBuildsTheSameFrame check the same runs, so each
// campaign runs once, in whichever of them reaches it first, and the
// others wait for it. It is dropped, and its directory removed, once
// its last reader finishes.
type campaign struct {
	once sync.Once
	mode goldenMode
	dir  string // the run's spill and export stores
	res  *repro.Result
	err  error
	// readers counts the tests still to finish with the run.
	readers int
}

// campaignReaders is how many tests read each mode's run of a scenario.
// A count too low only runs a campaign twice; one too high only keeps
// it until the pass of tests ends.
var campaignReaders = map[string]int{
	goldenMemory.name:       3, // golden, plan reference, finalize reference
	goldenMemoryStream.name: 2, // golden, finalize
	goldenStoreStream.name:  4, // golden, plan reference, finalize, frame read paths
	goldenNextSeed.name:     1, // golden
}

var (
	campaignsMu sync.Mutex
	campaigns   = map[string]*campaign{}
	// campaignTests counts the running top-level tests that share
	// campaigns.
	campaignTests int
)

// shareCampaigns registers t, a top-level test, as a reader of the
// shared campaigns; call it before t.Parallel. When the last such test
// finishes, whatever a -run filter left unread is dropped, so each pass
// of -count or -cpu runs its campaigns afresh.
func shareCampaigns(t *testing.T) {
	campaignsMu.Lock()
	campaignTests++
	campaignsMu.Unlock()
	t.Cleanup(func() {
		campaignsMu.Lock()
		defer campaignsMu.Unlock()
		if campaignTests--; campaignTests == 0 {
			for key, c := range campaigns {
				c.dropLocked(key)
			}
		}
	})
}

// runCampaign returns the named scenario's run in mode m at
// equivScale, running it on first use, and holds it until t finishes.
func runCampaign(t *testing.T, name string, m goldenMode) *campaign {
	t.Helper()
	key := name + "/" + m.name
	campaignsMu.Lock()
	c, ok := campaigns[key]
	if !ok {
		c = &campaign{mode: m, readers: campaignReaders[m.name]}
		campaigns[key] = c
	}
	campaignsMu.Unlock()
	t.Cleanup(func() {
		campaignsMu.Lock()
		defer campaignsMu.Unlock()
		if c.readers--; c.readers == 0 && campaigns[key] == c {
			c.dropLocked(key)
		}
	})
	c.once.Do(func() { c.err = c.run(name) })
	if c.err != nil {
		t.Fatalf("%s run: %v", key, c.err)
	}
	return c
}

// dropLocked forgets the campaign and removes its directory. The
// caller holds campaignsMu.
func (c *campaign) dropLocked(key string) {
	delete(campaigns, key)
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// run runs the campaign. A streamed run's records stay in its export
// store, which is smaller than the records, until a reader drains it.
func (c *campaign) run(name string) error {
	spec, err := repro.ScenarioSpec(name)
	if err != nil {
		return err
	}
	spec.Scale *= equivScale
	spec.Seed += c.mode.seedOffset
	if c.mode.store || c.mode.stream {
		if c.dir, err = os.MkdirTemp("", "repro-campaign-"); err != nil {
			return err
		}
	}
	if c.mode.store {
		spec.Collection.StoreDir = filepath.Join(c.dir, "spill")
	}
	if c.mode.stream {
		spec.Collection.Stream = true
		spec.Collection.ExportDir = filepath.Join(c.dir, "export")
	}
	c.res, err = repro.RunSpec(spec)
	return err
}

// records returns the finalized records: the dataset's own for a
// materialized run, drained from the export store for a streamed one.
func (c *campaign) records(t *testing.T) []logging.Record {
	t.Helper()
	if !c.mode.stream {
		return c.res.Dataset.Records
	}
	return drainStore(t, c.res.ExportDir)
}

// runGolden runs one scenario in one mode and returns its row.
func runGolden(t *testing.T, name string, m goldenMode) goldenRow {
	t.Helper()
	c := runCampaign(t, name, m)
	res, recs := c.res, c.records(t)
	if res.Frame == nil {
		t.Fatalf("%s run built no frame", m.name)
	}
	if res.Frame.Len() != len(recs) {
		t.Fatalf("%s: frame has %d records, dataset %d", m.name, res.Frame.Len(), len(recs))
	}
	if m.stream {
		if res.Dataset.Records != nil {
			t.Fatalf("%s run materialized records", m.name)
		}
		if uint64(len(recs)) != res.ExportedRecords {
			t.Fatalf("%s: export store has %d records, finalize wrote %d", m.name, len(recs), res.ExportedRecords)
		}
	}
	return goldenRow{
		Dataset: datasetDigest(recs, res),
		Report:  reportDigest(t, repro.Analyze(res)),
		Events:  res.Engine.Executed,
	}
}

// TestGoldenDigests runs every registered scenario at equivScale in
// every collection mode and compares each run with its row in
// testdata/golden.json.
func TestGoldenDigests(t *testing.T) {
	shareCampaigns(t)
	t.Parallel()
	var want map[string]goldenRow
	if !*updateGolden {
		b, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatalf("%v (generate it with go test -run TestGoldenDigests -update .)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
	}
	var (
		mu   sync.Mutex
		got  = map[string]goldenRow{}
		keys []string
	)
	for _, name := range repro.Scenarios() {
		for _, m := range goldenModes {
			keys = append(keys, name+"/"+m.name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, m := range goldenModes {
				key := name + "/" + m.name
				t.Run(m.name, func(t *testing.T) {
					t.Parallel()
					row := runGolden(t, name, m)
					mu.Lock()
					got[key] = row
					mu.Unlock()
					if w, ok := want[key]; !*updateGolden && (!ok || w != row) {
						t.Errorf("%s drifted from %s:\n got  %+v\n want %+v", key, goldenFile, row, w)
					}
				})
			}
			// The modes at the registered seed must agree with each other
			// whatever the table says. Cleanups run once the modes finish.
			t.Cleanup(func() {
				mu.Lock()
				defer mu.Unlock()
				ref, ok := got[name+"/memory"]
				for _, m := range goldenModes[1:] {
					row, ran := got[name+"/"+m.name]
					if !ok || !ran || m.seedOffset != 0 {
						continue
					}
					if row.Dataset != ref.Dataset {
						t.Errorf("%s/%s dataset differs from %s/memory", name, m.name, name)
					}
					if row.Report != ref.Report {
						t.Errorf("%s/%s report differs from %s/memory", name, m.name, name)
					}
					if row.Events != ref.Events {
						t.Errorf("%s/%s ran %d events, %s/memory %d", name, m.name, row.Events, name, ref.Events)
					}
				}
			})
		})
	}
	// Cleanups run once every parallel subtest has finished.
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if *updateGolden {
			if len(got) != len(keys) {
				t.Fatalf("ran %d of %d rows: -update rewrites the whole table, so run it unfiltered", len(got), len(keys))
			}
			// One row per line, in registry and mode order, so a diff of
			// the table names the rows it changes.
			var b bytes.Buffer
			sep := "{"
			for _, key := range keys {
				row, err := json.Marshal(got[key])
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s\n  %q: %s", sep, key, row)
				sep = ","
			}
			b.WriteString("\n}\n")
			if err := os.WriteFile(goldenFile, b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		for _, key := range keys {
			delete(want, key)
		}
		for key := range want {
			t.Errorf("%s has row %s, which no registered scenario and mode produces", goldenFile, key)
		}
	})
}

// equivScale is the scale every shared campaign runs at (the CI smoke
// matrix runs every scenario at 0.02 too).
const equivScale = 0.02

// drainStore reopens an exported dataset store and drains its merged
// iterator.
func drainStore(t *testing.T, dir string) []logging.Record {
	t.Helper()
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatalf("reopening export store: %v", err)
	}
	defer store.Close()
	it, err := store.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []logging.Record
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
}
