// Command hpmanager is the measurement manager for real-TCP honeypots
// (cmd/honeypotd): it connects to their control ports, assigns them to a
// directory server, tells them which files to advertise, monitors their
// health, periodically collects their logs, and at the end of the
// campaign merges and unifies everything — running the step-2
// anonymization and the audit — into a JSONL dataset.
//
// Usage:
//
//	hpmanager -honeypots 127.0.0.1:4700,127.0.0.1:4701 \
//	          -server 127.0.0.1:4661 \
//	          -links links.txt -duration 2m -out dataset.jsonl
//
// links.txt holds one ed2k://|file|name|size|hash|/ link per line: the
// files the fleet will claim to have. Without -links, four synthetic bait
// files are generated.
//
// With -export DIR the anonymized dataset is also streamed into a
// logstore under DIR. Unlike a simulated campaign's export it carries no
// frame file, because hpmanager builds no frame: a later
// analysis.OpenFrame scans it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"maps"
	"net/netip"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/control"
	"repro/internal/ed2k"
	"repro/internal/livenet"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("hpmanager: ")
	var (
		hpList    = flag.String("honeypots", "", "comma-separated control endpoints (required)")
		srvAddr   = flag.String("server", "127.0.0.1:4661", "directory server for the fleet")
		linkFile  = flag.String("links", "", "file of ed2k links to advertise (optional)")
		duration  = flag.Duration("duration", time.Minute, "measurement duration")
		collect   = flag.Duration("collect-every", 10*time.Second, "log collection period")
		health    = flag.Duration("health-every", 5*time.Second, "status poll period")
		collectTO = flag.Duration("collect-timeout", 10*time.Second, "deadline for one control exchange; a silent honeypot fails the request instead of hanging the round (0 waits forever)")
		retries   = flag.Int("collect-retries", 2, "per-round retry budget when a honeypot's collection fails; past it the round is recorded as a gap and the next period tries again")
		backoff   = flag.Duration("collect-retry-backoff", 2*time.Second, "base delay before a collection retry, doubling per attempt")
		out       = flag.String("out", "dataset.jsonl", "output JSONL dataset")
		ip        = flag.String("ip", "127.0.0.1", "address to bind the manager")
		storeDir  = flag.String("store", "", "spill collected records into a segmented on-disk logstore instead of holding them in memory")
		exportDir = flag.String("export", "", "additionally stream the anonymized dataset into a segmented on-disk logstore under this directory, for later streaming analysis")
		debugAddr = flag.String("debug-addr", "", "serve /metrics (JSON snapshot), /debug/vars (expvar) and /debug/pprof on this address (e.g. 127.0.0.1:8060); empty disables")
	)
	flag.Parse()

	if *hpList == "" {
		log.Fatal("-honeypots is required")
	}
	server, err := netip.ParseAddrPort(*srvAddr)
	if err != nil {
		log.Fatalf("bad -server: %v", err)
	}
	mgrAddr, err := netip.ParseAddr(*ip)
	if err != nil {
		log.Fatalf("bad -ip: %v", err)
	}
	files, err := loadFiles(*linkFile)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("advertising %d files", len(files))

	host := livenet.NewHost(mgrAddr, time.Now().UnixNano())
	defer host.Close()

	// With -debug-addr, the manager's telemetry — collection counters,
	// finalize pipeline stages, store counters — is live over HTTP for
	// the whole campaign. A nil registry (flag unset) disables all of it.
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.New()
		dbg, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatalf("-debug-addr: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug server on http://%s (/metrics, /debug/vars, /debug/pprof)", dbg.Addr())
	}

	cfg := manager.DefaultConfig()
	cfg.CollectEvery = *collect
	cfg.HealthEvery = *health
	cfg.CollectRetries = *retries
	cfg.CollectRetryBackoff = *backoff
	cfg.Metrics = reg
	mgr := manager.New(host, cfg)
	if *storeDir != "" {
		store, err := logstore.Open(*storeDir, logstore.Options{Metrics: reg})
		if err != nil {
			log.Fatalf("opening -store: %v", err)
		}
		defer store.Close()
		// Quarantined data means the manifest and the disk disagree about
		// a previous campaign's records. Refusing to run is the only safe
		// move: continuing would publish a dataset with a silent hole.
		if q := store.Quarantined(); len(q) > 0 {
			for _, e := range q {
				log.Printf("-store %s: quarantined: shard %s seq %d: %s", *storeDir, e.Shard, e.Seq, e.Reason)
			}
			log.Fatalf("-store %s: %d quarantined segment(s), first in shard %s; inspect the store's _quarantine directory before measuring", *storeDir, len(q), q[0].Shard)
		}
		mgr.SetStore(store)
		log.Printf("spilling collected records to %s", *storeDir)
	}

	// Dial every honeypot's control port and register it.
	endpoints := strings.Split(*hpList, ",")
	type dialResult struct {
		link *control.Link
		err  error
		addr string
	}
	results := make(chan dialResult, len(endpoints))
	host.Post(func() {
		for i, ep := range endpoints {
			ep = strings.TrimSpace(ep)
			ap, err := netip.ParseAddrPort(ep)
			if err != nil {
				results <- dialResult{err: fmt.Errorf("bad endpoint %q: %v", ep, err), addr: ep}
				continue
			}
			id := fmt.Sprintf("hp-%02d", i)
			control.Dial(host, id, ap, func(l *control.Link, err error) {
				results <- dialResult{link: l, err: err, addr: ep}
			})
		}
	})
	links := make([]*control.Link, 0, len(endpoints))
	for range endpoints {
		r := <-results
		if r.err != nil {
			log.Fatalf("connecting to honeypot %s: %v", r.addr, r.err)
		}
		log.Printf("connected to honeypot at %s", r.addr)
		links = append(links, r.link)
	}

	assignments := manager.SameServer(server, files, len(links))
	host.Post(func() {
		// A honeypotd restarted mid-campaign fails its next status poll;
		// it is dialed again at its endpoint, under the same policy, and
		// collected from where its checkpoint stands.
		mgr.Relaunch = mgr.Redial
		for i, l := range links {
			// The link-level policy bounds each exchange (deadline + one
			// re-ask for idempotent requests); the manager's retry budget
			// handles whole failed rounds above it.
			l.SetPolicy(control.Policy{Timeout: *collectTO, Attempts: 2})
			if err := mgr.Add(l, assignments[i]); err != nil {
				log.Fatal(err)
			}
		}
		mgr.Start()
	})

	log.Printf("measuring for %v ...", *duration)
	time.Sleep(*duration)

	// Finalize through the streaming pipeline: the anonymized dataset
	// flows record-by-record into the JSONL file (and the export store,
	// when asked) without ever materializing a []Record — a ten-week
	// campaign's dataset needs no more memory than its distinct values.
	type finResult struct {
		ds  *manager.DatasetStream
		err error
	}
	fin := make(chan finResult, 1)
	host.Post(func() {
		mgr.FinalizeStream(func(ds *manager.DatasetStream, err error) {
			fin <- finResult{ds, err}
		})
	})
	res := <-fin
	if res.err != nil {
		log.Fatalf("finalize: %v", res.err)
	}
	defer res.ds.Close()

	var export *logstore.Store
	if *exportDir != "" {
		export, err = logstore.Open(*exportDir, logstore.Options{Metrics: reg})
		if err != nil {
			log.Fatalf("opening -export: %v", err)
		}
		// Appending a second campaign after a first would silently merge
		// the two datasets on the next streamed analysis.
		if n := export.TotalRecords(); n > 0 {
			log.Fatalf("-export %s already holds %d records from a previous run; point it at a fresh directory", *exportDir, n)
		}
		log.Printf("exporting anonymized dataset to %s", *exportDir)
	}
	n, err := drain(*out, res.ds, export)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d records (%d distinct peers) to %s",
		n, res.ds.DistinctPeers(), *out)
	logContributions(res.ds.PerHoneypot())
	logged := make(chan struct{})
	host.Post(func() { logTrouble(mgr.States()); close(logged) })
	<-logged
}

// drain writes the finalized dataset to the JSONL file at out and,
// when export is set, tees every record into that store on the way.
// Both are closed before it returns, and a failed close is the run's
// error, naming the file: the export's Close is where each shard's last
// buffered frames and the MANIFEST are written. The export gets no
// frame file (nothing here builds a frame), so a later OpenFrame scans
// it.
func drain(out string, it logging.Iterator, export *logstore.Store) (n int, err error) {
	if export != nil {
		defer func() {
			if cerr := export.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing -export %s: %w", export.Dir(), cerr)
			}
		}()
		it = logging.Map(it, func(r *logging.Record) error {
			return export.AppendRecord(*r)
		})
	}
	f, err := os.Create(out)
	if err != nil {
		return 0, fmt.Errorf("creating %s: %w", out, err)
	}
	n, err = logging.WriteJSONLIter(f, it)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing %s: %w", out, cerr)
	} else if err != nil {
		err = fmt.Errorf("writing %s: %w", out, err)
	}
	return n, err
}

// logContributions logs each honeypot's record count in honeypot ID
// order, so that identical runs print identical summaries.
func logContributions(perHP map[string]int) {
	for _, id := range slices.Sorted(maps.Keys(perHP)) {
		log.Printf("  %s contributed %d records", id, perHP[id])
	}
}

// logTrouble logs each relaunched or degraded honeypot in ID order; a
// clean fleet logs nothing. Call it on the manager's executor.
func logTrouble(states []*manager.HoneypotState) {
	byID := func(a, b *manager.HoneypotState) int { return strings.Compare(a.Handle.ID(), b.Handle.ID()) }
	for _, st := range slices.SortedFunc(slices.Values(states), byID) {
		if st.Relaunches > 0 || st.MissedRounds > 0 {
			log.Printf("  %s: %d relaunches, %d missed collection rounds", st.Handle.ID(), st.Relaunches, st.MissedRounds)
		}
	}
}

// loadFiles reads ed2k links or fabricates bait files.
func loadFiles(path string) ([]client.SharedFile, error) {
	if path == "" {
		names := []string{
			"some.popular.movie.2008.avi",
			"hit.song.mp3",
			"linux.distribution.iso",
			"interesting.text.pdf",
		}
		sizes := []int64{734003200, 5242880, 734003200, 1048576}
		types := []string{"Video", "Audio", "Pro", "Doc"}
		out := make([]client.SharedFile, 4)
		for i := range out {
			out[i] = client.SharedFile{
				Hash: ed2k.SyntheticHash("bait/" + names[i]),
				Name: names[i], Size: sizes[i], Type: types[i],
			}
		}
		return out, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening -links: %w", err)
	}
	defer f.Close()
	var out []client.SharedFile
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		l, err := ed2k.ParseLink(line)
		if err != nil {
			return nil, fmt.Errorf("bad link %q: %w", line, err)
		}
		out = append(out, client.SharedFile{Hash: l.Hash, Name: l.Name, Size: l.Size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no links in %s", path)
	}
	return out, nil
}
