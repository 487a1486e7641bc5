// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON object, so CI's benchmark artifacts diff
// cleanly across PRs: BENCH_<date>.txt stays the human-readable record,
// BENCH_<date>.json the tool-readable one.
//
//	go test -bench . -benchmem ./... | benchjson > BENCH.json
//
// Each benchmark becomes one entry keyed by its name (the -<procs>
// suffix stripped), carrying iterations plus every reported metric:
// ns/op, B/op, allocs/op and custom b.ReportMetric units such as
// events/s or records/s. Repeated names (e.g. concatenated runs)
// keep the last occurrence. A benchmark run at several GOMAXPROCS
// values (-cpu 1,2) keeps one entry per value instead, keyed
// <name>/procs=<N>; a name without a suffix ran at GOMAXPROCS 1.
// Non-benchmark lines pass through silently.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's parsed measurements. Metrics maps the
// reported unit (e.g. "ns/op", "B/op", "events/s") to its value.
type BenchResult struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// stripProcs removes the trailing -<GOMAXPROCS> that `go test` appends
// to benchmark names, keeping sub-benchmark paths intact.
func stripProcs(name string) string {
	name, _ = splitProcs(name)
	return name
}

// splitProcs splits a benchmark name into its base and the GOMAXPROCS
// it ran at: `go test` appends no suffix at GOMAXPROCS 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// parseBench reads benchmark text output and collects the results in
// encounter order (names returns that order with duplicates removed,
// last value winning).
func parseBench(r io.Reader) (map[string]BenchResult, []string, error) {
	type entry struct {
		name  string
		procs int
		res   BenchResult
	}
	var entries []entry
	procsSeen := map[string]map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := BenchResult{Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			res.Metrics[fields[i+1]] = v
		}
		name, procs := splitProcs(m[1])
		if procsSeen[name] == nil {
			procsSeen[name] = map[int]bool{}
		}
		procsSeen[name][procs] = true
		entries = append(entries, entry{name, procs, res})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	out := map[string]BenchResult{}
	var names []string
	for _, e := range entries {
		key := e.name
		if len(procsSeen[e.name]) > 1 {
			key = fmt.Sprintf("%s/procs=%d", e.name, e.procs)
		}
		if _, seen := out[key]; !seen {
			names = append(names, key)
		}
		out[key] = e.res
	}
	return out, names, nil
}

func main() {
	results, _, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	// Sorted keys: encoding/json does this for maps anyway, but sort
	// explicitly so the contract is in the tool, not the library.
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make(map[string]BenchResult, len(results))
	for _, k := range keys {
		ordered[k] = results[k]
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ordered); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
