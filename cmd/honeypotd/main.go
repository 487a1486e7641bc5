// Command honeypotd runs one real-TCP honeypot, remotely driven by the
// manager (cmd/hpmanager) over the control protocol: the manager tells it
// which directory server to join and which files to claim, polls its
// status, and periodically collects its (already anonymized) log from
// the checkpoint it last acked.
//
// Usage:
//
//	honeypotd -id hp-00 [-ip 127.0.0.1] [-peer-port 4662] [-control-port 4700]
//	          [-strategy random|none] -secret campaign-secret [-browse]
//	          -store DIR [-debug-addr 127.0.0.1:8061]
//
// -store DIR is required: the honeypot logs into a logstore shard there,
// which survives a restart, so the manager's checkpoints stay valid.
//
// -debug-addr serves the daemon's telemetry over HTTP: /metrics (the
// registry as JSON), /debug/vars (expvar) and /debug/pprof.
package main

import (
	"flag"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/control"
	"repro/internal/honeypot"
	"repro/internal/livenet"
	"repro/internal/logstore"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("honeypotd: ")
	var (
		id        = flag.String("id", "hp-00", "honeypot identifier in logs")
		ip        = flag.String("ip", "127.0.0.1", "address to bind")
		peerPort  = flag.Uint("peer-port", 4662, "eDonkey peer port")
		ctlPort   = flag.Uint("control-port", control.DefaultPort, "manager control port")
		strategy  = flag.String("strategy", "none", "part-request strategy: random or none")
		secret    = flag.String("secret", "", "campaign anonymization secret (required)")
		browse    = flag.Bool("browse", true, "retrieve shared lists of contacting peers")
		statusIv  = flag.Duration("status", time.Minute, "status log interval (0 disables)")
		storeDir  = flag.String("store", "", "durable record store directory (required): records land in segment files and the manager collects them by checkpoint (take-records-since), surviving restarts")
		debugAddr = flag.String("debug-addr", "", "serve /metrics (JSON snapshot), /debug/vars (expvar) and /debug/pprof on this address (e.g. 127.0.0.1:8061); empty disables")
	)
	flag.Parse()

	if *secret == "" {
		log.Fatal("-secret is required: honeypots never log raw addresses")
	}
	if *storeDir == "" {
		// A log that died with the process would restart empty under the
		// manager's old checkpoint, and the checkpoint read would skip the
		// new records.
		log.Fatal("-store is required: the manager collects by checkpoint, which needs a log that survives restarts")
	}
	addr, err := netip.ParseAddr(*ip)
	if err != nil {
		log.Fatalf("bad -ip: %v", err)
	}
	var strat honeypot.Strategy
	switch *strategy {
	case "random":
		strat = honeypot.RandomContent
	case "none":
		strat = honeypot.NoContent
	default:
		log.Fatalf("unknown -strategy %q (want random or none)", *strategy)
	}

	// With -debug-addr, the daemon exposes its telemetry over HTTP: the
	// registry feeds the store's counters and the status-tick gauges. A
	// nil registry (flag unset) keeps every update a one-branch no-op.
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

	// Records are durable: the store recovers torn tails from a previous
	// crash, and the manager's checkpoints mean nothing already collected
	// is ever re-sent. FlushEvery bounds what a hard kill can lose to
	// about a second of buffered records; a graceful shutdown loses
	// nothing.
	store, err := logstore.Open(*storeDir, logstore.Options{FlushEvery: time.Second, Metrics: reg})
	if err != nil {
		log.Fatalf("opening -store: %v", err)
	}
	defer store.Close()
	// Quarantined segments mean recovery refused part of a previous run's
	// data. A honeypot that kept logging would bury the evidence; exit and
	// name the shard so the operator decides.
	if q := store.Quarantined(); len(q) > 0 {
		for _, e := range q {
			log.Printf("-store %s: quarantined: shard %s seq %d: %s", *storeDir, e.Shard, e.Seq, e.Reason)
		}
		log.Fatalf("-store %s: %d quarantined segment(s), first in shard %s; inspect the store's _quarantine directory before logging into it", *storeDir, len(q), q[0].Shard)
	}
	shard, err := store.Shard(*id)
	if err != nil {
		log.Fatalf("opening shard: %v", err)
	}
	log.Printf("store %s: resuming shard %s with %d records", *storeDir, *id, shard.Count())

	host := livenet.NewHost(addr, time.Now().UnixNano())
	defer host.Close()

	errCh := make(chan error, 1)
	host.Post(func() {
		cfg := honeypot.Config{
			ID:             *id,
			Strategy:       strat,
			Port:           uint16(*peerPort),
			Secret:         []byte(*secret),
			BrowseContacts: *browse,
			Sink:           shard,
		}
		hp := honeypot.New(host, cfg)
		if err := hp.Client().Listen(); err != nil {
			errCh <- err
			return
		}
		if _, err := control.NewAgent(host, hp, shard, uint16(*ctlPort)); err != nil {
			errCh <- err
			return
		}
		if *statusIv > 0 {
			// Status gauges refresh on the same tick as the status log;
			// nil-safe, so they cost nothing without -debug-addr.
			var (
				gConnected   = reg.Gauge("honeypot.connected")
				gRecords     = reg.Gauge("honeypot.records")
				gAdvertised  = reg.Gauge("honeypot.advertised")
				gHello       = reg.Gauge("honeypot.hello")
				gStartUpload = reg.Gauge("honeypot.start_upload")
				gRequestPart = reg.Gauge("honeypot.request_part")
			)
			var tick func()
			tick = func() {
				st := hp.Status()
				connected := int64(0)
				if st.Connected {
					connected = 1
				}
				gConnected.Set(connected)
				gRecords.Set(int64(st.Records))
				gAdvertised.Set(int64(st.Advertised))
				gHello.Set(int64(st.Stats.Hello))
				gStartUpload.Set(int64(st.Stats.StartUpload))
				gRequestPart.Set(int64(st.Stats.RequestParts))
				log.Printf("connected=%v id=%d records=%d advertised=%d hello=%d start-upload=%d request-part=%d",
					st.Connected, st.ClientID, st.Records, st.Advertised,
					st.Stats.Hello, st.Stats.StartUpload, st.Stats.RequestParts)
				host.After(*statusIv, tick)
			}
			host.After(*statusIv, tick)
		}
		errCh <- nil
	})
	if err := <-errCh; err != nil {
		log.Fatalf("start: %v", err)
	}
	log.Printf("%s (%s) listening: peers on %s:%d, control on %s:%d",
		*id, strat, *ip, *peerPort, *ip, *ctlPort)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
}
