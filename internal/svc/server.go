package svc

// The HTTP face of the Service: a net/http handler exposing the run
// lifecycle (submit, list, inspect, abort), the SSE progress stream,
// on-demand analysis, the registries, and the process debug surface.
//
//	GET    /healthz            liveness probe
//	GET    /scenarios          registered scenario names (sorted)
//	GET    /queries            registered analysis query names (sorted)
//	GET    /runs               every tracked run, oldest first
//	POST   /runs               submit a campaign (SubmitRequest)
//	GET    /runs/{id}          one run's current state
//	DELETE /runs/{id}          abort a queued/running campaign
//	GET    /runs/{id}/events   SSE progress stream until terminal
//	POST   /runs/{id}/query    execute an analysis.Plan (empty body =
//	                           the run's plan, else the full paper plan)
//	POST   /runs/{id}/rerun    re-submit the run's spec as a new run
//	POST   /runs/{id}/calibrate diff the run's artifacts against an
//	                           observed dataset (empty body = the
//	                           built-in paper dataset)
//	GET    /runs/{id}/metrics  the run's telemetry registry snapshot
//	GET    /metrics            daemon-level registry (via obs.Attach)
//	GET    /debug/vars|pprof/  expvar + pprof   (via obs.Attach)
//
// Report bytes from /runs/{id}/query are exactly cmd/measure's -report
// encoding (json.MarshalIndent + trailing newline), so the CI smoke job
// can diff the two byte-for-byte.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/calibrate"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// SubmitRequest is the POST /runs body. Exactly one of Scenario (a
// registered name) or Spec (a full campaign spec) selects the campaign;
// Scale and Seed then adjust it; Plan becomes the run's default
// analysis.
type SubmitRequest struct {
	// Scenario names a registered scenario (see GET /scenarios).
	Scenario string `json:"scenario,omitempty"`
	// Spec is a complete campaign spec, mutually exclusive with Scenario.
	Spec *scenario.Spec `json:"spec,omitempty"`
	// Scale multiplies the selected spec's own scale when > 0, exactly
	// like cmd/measure's -scale flag.
	Scale float64 `json:"scale,omitempty"`
	// Seed, when present, overrides the spec's seed.
	Seed *int64 `json:"seed,omitempty"`
	// Plan is the run's default analysis plan (optional).
	Plan *analysis.Plan `json:"plan,omitempty"`
}

// maxRequestBody bounds the body of every POST route that reads one
// (/runs, /runs/{id}/query, /runs/{id}/calibrate). The largest body the
// repository's own client sends, a registered spec with its paper plan,
// is a few KiB; a larger body is answered 413 without being read.
const maxRequestBody = 1 << 20

// errorBody is every non-2xx response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

// Handler builds the service's HTTP mux, including the obs debug
// surface (daemon registry at /metrics, expvar, pprof).
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	obs.Attach(mux, s.Registry())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /scenarios", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"scenarios": s.Scenarios()})
	})
	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"queries": s.Queries()})
	})
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]Run{"runs": s.Runs()})
	})
	mux.HandleFunc("POST /runs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(s, w, r)
	})
	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, err := s.Run(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, run)
	})
	mux.HandleFunc("DELETE /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, err := s.Abort(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, run)
	})
	mux.HandleFunc("GET /runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(s, w, r)
	})
	mux.HandleFunc("POST /runs/{id}/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, w, r)
	})
	mux.HandleFunc("POST /runs/{id}/rerun", func(w http.ResponseWriter, r *http.Request) {
		run, err := s.Rerun(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, run)
	})
	mux.HandleFunc("POST /runs/{id}/calibrate", func(w http.ResponseWriter, r *http.Request) {
		handleCalibrate(s, w, r)
	})
	mux.HandleFunc("GET /runs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg, err := s.Metrics(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		obs.MetricsHandler(reg)(w, r)
	})
	return mux
}

// handleSubmit decodes a SubmitRequest, resolves the spec and queues
// the run. 201 with the queued run on success.
func handleSubmit(s *Service, w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBodyError(w, "decoding request", err)
		return
	}
	var spec scenario.Spec
	switch {
	case req.Scenario != "" && req.Spec != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{`"scenario" and "spec" are mutually exclusive`})
		return
	case req.Scenario != "":
		var err error
		spec, err = scenario.Lookup(req.Scenario)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
	case req.Spec != nil:
		spec = *req.Spec
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{`one of "scenario" or "spec" is required`})
		return
	}
	if req.Scale < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{`"scale" must be positive`})
		return
	}
	if req.Scale > 0 {
		spec.Scale *= req.Scale
	}
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	run, err := s.Submit(spec, req.Plan)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, run)
}

// handleQuery executes a plan against a finished run and writes the
// ReportSet in cmd/measure's exact report encoding.
func handleQuery(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeBodyError(w, "reading request", err)
		return
	}
	var plan *analysis.Plan
	if len(body) > 0 {
		p, err := analysis.ParsePlan(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		plan = &p
	}
	rs, err := s.Query(id, plan)
	if err != nil {
		writeError(w, err)
		return
	}
	out, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	out = append(out, '\n')
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// handleCalibrate diffs a finished run against an observed dataset: an
// empty body selects the built-in paper dataset, else the body is a
// calibrate.Dataset. The 200 response is the calibrate.Report — its
// "pass" field, not the HTTP status, carries the verdict.
func handleCalibrate(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeBodyError(w, "reading request", err)
		return
	}
	var ds *calibrate.Dataset
	if len(body) > 0 {
		if ds, err = calibrate.ParseDataset(body); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
	}
	rep, err := s.Calibrate(id, ds)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleEvents serves the SSE progress stream: "progress" events while
// the campaign runs, then one terminal event named after the run's
// final state ("done" | "failed" | "aborted") carrying the run JSON.
func handleEvents(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{"streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				// Stream over: the run reached a terminal state before the
				// notifier closed, so this read observes it.
				run, err := s.Run(id)
				if err != nil {
					return
				}
				writeSSE(w, string(run.State), run)
				fl.Flush()
				return
			}
			writeSSE(w, "progress", e)
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// writeSSE frames one server-sent event. Payloads marshal compact, so
// the data field is a single line.
func writeSSE(w io.Writer, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 when it exceeded maxRequestBody, 400 otherwise.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorBody{fmt.Sprintf("%s: %v", what, err)})
}

// writeError maps service errors to HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrTerminal), errors.Is(err, ErrNotQueryable):
		status = http.StatusConflict
	case errors.Is(err, ErrBusy):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	default:
		// Validation and lookup failures surface as 400s.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{err.Error()})
}
