package main

// The -submit mode: one campaign workflow, local or remote. The spec
// selected by -scenario / -scenario-file (with -scale and -seed already
// applied, exactly as a local run would resolve them) is posted to a
// running measured daemon, its SSE progress stream is tailed to stderr,
// and the finished run's report is fetched and written like a local
// -report (writeJSON) — byte-identical to what the same spec and seed
// produce via a local plan run, because the daemon serves cmd/measure's
// exact report encoding.

import (
	"context"
	"encoding/json"
	"log"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/svc"
)

// submitRun drives a remote campaign end to end: submit, tail, report.
// Ctrl-C turns into a remote DELETE — the daemon aborts the campaign
// into a partial result, and the report covers what was collected.
func submitRun(baseURL string, spec repro.Spec, plan *analysis.Plan, reportPath string) {
	client := svc.NewClient(baseURL)
	ctx := context.Background()

	run, err := client.Submit(ctx, svc.SubmitRequest{Spec: &spec, Plan: plan})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("submitted run %s to %s (state: %s)", run.ID, client.Base, run.State)

	onInterrupt(func() {
		log.Printf("interrupt: aborting remote run %s...", run.ID)
		if _, err := client.Abort(context.Background(), run.ID); err != nil {
			log.Printf("abort: %v", err)
		}
	})

	final, err := client.Events(ctx, run.ID, logProgress)
	if err != nil {
		log.Fatal(err)
	}

	switch final.State {
	case svc.StateFailed:
		log.Fatalf("run %s failed: %s", final.ID, final.Error)
	case svc.StateAborted:
		if s := final.Summary; s != nil && !s.AbortedAt.IsZero() {
			log.Printf("run %s ABORTED at %s (sim time); the report covers only records collected before the abort",
				final.ID, s.AbortedAt.Format("2006-01-02 15:04"))
		} else {
			log.Printf("run %s aborted before any records were collected", final.ID)
		}
	}
	if s := final.Summary; s != nil {
		log.Printf("run %s: %s; %d events, %d records, %d distinct peers, wall %v",
			final.ID, final.State, s.Events, s.Records, s.DistinctPeers,
			(time.Duration(s.WallSeconds * float64(time.Second))).Round(time.Millisecond))
	}

	// nil plan: the daemon falls back to the plan submitted with the run,
	// then to the full paper plan.
	data, err := client.Query(ctx, final.ID, nil)
	if err != nil {
		log.Fatal(err)
	}
	writeJSON(reportPath, json.RawMessage(data))
}
