package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
)

// TestLogContributionsSorted: the per-honeypot summary comes out in
// honeypot ID order whatever the map's iteration order.
func TestLogContributionsSorted(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	log.SetFlags(0)
	t.Cleanup(func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(log.LstdFlags)
	})
	perHP := map[string]int{"hp-03": 3, "hp-00": 10, "hp-11": 1, "hp-01": 7, "hp-02": 0}
	want := "  hp-00 contributed 10 records\n" +
		"  hp-01 contributed 7 records\n" +
		"  hp-02 contributed 0 records\n" +
		"  hp-03 contributed 3 records\n" +
		"  hp-11 contributed 1 records\n"
	for i := 0; i < 20; i++ {
		buf.Reset()
		logContributions(perHP)
		if got := buf.String(); got != want {
			t.Fatalf("run %d:\n%s\nwant\n%s", i, got, strings.TrimSpace(want))
		}
	}
}

// named is a manager.Handle that only answers its ID.
type named struct {
	manager.Handle
	id string
}

func (n named) ID() string { return n.id }

// TestLogTroubleSorted: the closing trouble summary names each relaunched
// or degraded honeypot in ID order, and nothing for a clean fleet.
func TestLogTroubleSorted(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	log.SetFlags(0)
	t.Cleanup(func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(log.LstdFlags)
	})
	states := []*manager.HoneypotState{
		{Handle: named{id: "hp-03"}, MissedRounds: 2},
		{Handle: named{id: "hp-00"}},
		{Handle: named{id: "hp-11"}, Relaunches: 1},
		{Handle: named{id: "hp-01"}, Relaunches: 3, MissedRounds: 1},
	}
	logTrouble(states)
	want := "  hp-01: 3 relaunches, 1 missed collection rounds\n" +
		"  hp-03: 0 relaunches, 2 missed collection rounds\n" +
		"  hp-11: 1 relaunches, 0 missed collection rounds\n"
	if got := buf.String(); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
	buf.Reset()
	logTrouble(states[1:2])
	if got := buf.String(); got != "" {
		t.Errorf("a clean fleet logged %q", got)
	}
}

// finalIter hands out its records one per Fill and, on the call after
// the last one — when a stage above has passed every record on — runs
// atEnd and reports io.EOF.
type finalIter struct {
	recs  []logging.Record
	atEnd func()
}

func (it *finalIter) Fill(dst []logging.Record) (int, error) {
	if len(it.recs) == 0 {
		it.atEnd()
		return 0, io.EOF
	}
	dst[0] = it.recs[0]
	it.recs = it.recs[1:]
	return 1, nil
}

func (it *finalIter) Next() (logging.Record, error) {
	var r [1]logging.Record
	_, err := it.Fill(r[:])
	return r[0], err
}

// TestDrainFailsOnExportClose: the export's last records sit in its
// shards' write buffers until Close flushes them, so a disk that fails
// then loses them; drain must return that error naming the export, not
// report success.
func TestDrainFailsOnExportClose(t *testing.T) {
	sw := faultfs.NewSwitch()
	dir := "/export"
	export, err := logstore.Open(dir, logstore.Options{FS: faultfs.Wrap(faultfs.NewMem(), sw)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	var recs []logging.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, logging.Record{
			Time: start.Add(time.Duration(i) * time.Second), Honeypot: fmt.Sprintf("hp-%02d", i%3),
			Kind: logging.KindHello, PeerIP: logging.NumberedPeer(uint64(i % 7)),
		})
	}
	// Every record is buffered by the time the stream ends; from then on
	// segment writes fail.
	it := &finalIter{recs: recs, atEnd: func() { sw.Deny(".seg") }}
	out := filepath.Join(t.TempDir(), "dataset.jsonl")
	n, err := drain(out, it, export)
	if err == nil {
		t.Fatalf("drain wrote %d records and succeeded although the export's final flush failed", n)
	}
	if !strings.Contains(err.Error(), dir) || !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("drain's error does not name the export or its cause: %v", err)
	}

	// The same stream into a healthy export succeeds, and the JSONL holds
	// every record.
	healthy, err := logstore.Open(t.TempDir(), logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err = drain(out, &finalIter{recs: recs, atEnd: func() {}}, healthy); err != nil || n != len(recs) {
		t.Fatalf("healthy drain: %d records, %v", n, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != len(recs) {
		t.Errorf("JSONL holds %d lines, want %d", lines, len(recs))
	}
}
