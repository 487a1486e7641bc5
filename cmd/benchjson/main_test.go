package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU
BenchmarkFrameBuild-8   	      12	  94018273 ns/op	 5123456 B/op	    1234 allocs/op
BenchmarkScheduler/pending=100000/wheel-8         	 5000000	       170.4 ns/op	   5870000 events/s	       0 B/op	       0 allocs/op
BenchmarkScheduler/pending=100000/heap-8          	 1000000	       820.1 ns/op	   1220000 events/s	       0 B/op	       0 allocs/op
BenchmarkFinalize-8     	       3	 401234567 ns/op	  123456 records/s
--- BENCH: BenchmarkFrameBuild-8
    some log noise that must be ignored
PASS
ok  	repro	42.000s
`

func TestParseBench(t *testing.T) {
	got, names, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"BenchmarkFrameBuild",
		"BenchmarkScheduler/pending=100000/wheel",
		"BenchmarkScheduler/pending=100000/heap",
		"BenchmarkFinalize",
	}
	if len(names) != len(wantNames) {
		t.Fatalf("got %d benchmarks (%v), want %d", len(names), names, len(wantNames))
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}

	fb := got["BenchmarkFrameBuild"]
	if fb.Iterations != 12 {
		t.Errorf("FrameBuild iterations = %d, want 12", fb.Iterations)
	}
	if fb.Metrics["ns/op"] != 94018273 || fb.Metrics["B/op"] != 5123456 || fb.Metrics["allocs/op"] != 1234 {
		t.Errorf("FrameBuild metrics = %v", fb.Metrics)
	}

	wheel := got["BenchmarkScheduler/pending=100000/wheel"]
	if wheel.Metrics["events/s"] != 5870000 {
		t.Errorf("wheel events/s = %v, want 5870000", wheel.Metrics["events/s"])
	}
	if wheel.Metrics["allocs/op"] != 0 {
		t.Errorf("wheel allocs/op = %v, want 0", wheel.Metrics["allocs/op"])
	}

	fin := got["BenchmarkFinalize"]
	if fin.Metrics["records/s"] != 123456 {
		t.Errorf("Finalize records/s = %v, want 123456", fin.Metrics["records/s"])
	}
}

func TestParseBenchLastWins(t *testing.T) {
	in := "BenchmarkX-4 100 10.0 ns/op\nBenchmarkX-4 200 20.0 ns/op\n"
	got, names, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "BenchmarkX" {
		t.Fatalf("names = %v, want [BenchmarkX]", names)
	}
	if got["BenchmarkX"].Iterations != 200 || got["BenchmarkX"].Metrics["ns/op"] != 20 {
		t.Errorf("last occurrence should win, got %+v", got["BenchmarkX"])
	}
}

// A benchmark run at -cpu 1,2 keeps both results, keyed by GOMAXPROCS;
// one run at a single value keeps its plain name.
func TestParseBenchSeveralProcs(t *testing.T) {
	in := "BenchmarkG 5 300.0 ns/op\nBenchmarkG-2 5 150.0 ns/op\nBenchmarkH-2 5 7.0 ns/op\nBenchmarkG-2 9 140.0 ns/op\n"
	got, names, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkG/procs=1", "BenchmarkG/procs=2", "BenchmarkH"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("names = %v, want %v", names, want)
	}
	if got["BenchmarkG/procs=1"].Metrics["ns/op"] != 300 || got["BenchmarkG/procs=2"].Metrics["ns/op"] != 140 {
		t.Errorf("got %+v", got)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFrameBuild-8":       "BenchmarkFrameBuild",
		"BenchmarkScheduler/wheel-16": "BenchmarkScheduler/wheel",
		"BenchmarkNoProcs":            "BenchmarkNoProcs",
		// benchstat convention: a trailing -digits is always the procs
		// suffix, so sub-benchmark parameters use key=value form.
		"BenchmarkScheduler/pending=1000-4": "BenchmarkScheduler/pending=1000",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
