package main

import (
	"bytes"
	"log"
	"os"
	"strings"
	"testing"
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
