package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"dramtherm/internal/memo"
	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote/gossip"
)

// Config tunes a Server. The zero value selects the defaults.
type Config struct {
	// JobTTL evicts finished jobs this long after completion
	// (default 15m; < 0 disables TTL eviction).
	JobTTL time.Duration
	// MaxJobs bounds the job registry (default sweep.DefaultMaxJobs).
	MaxJobs int
	// Heartbeat is the SSE keep-alive comment period (default 15s).
	Heartbeat time.Duration
	// MaxBatch bounds the spec count of one POST /v1/exec/batch shard
	// (default DefaultMaxBatch); larger shards get a 413.
	MaxBatch int
	// Logf sinks internal-error logs (default log.Printf). When Logger
	// is unset, log records are rendered onto Logf one line each, so
	// printf-style callers keep working.
	Logf func(format string, v ...any)
	// Logger, when non-nil, receives structured request and error logs
	// (method, path, request_id attrs) and takes precedence over Logf.
	Logger *slog.Logger
	// Metrics, when non-nil, instruments every route (request counts and
	// latency by registered pattern, in-flight gauge, SSE subscribers),
	// instruments the job registry, and serves the registry's text
	// exposition at GET /metrics. When nil, only request-id propagation
	// is active and /metrics answers 404.
	Metrics *obs.Registry
	// Version is reported by GET /v1/healthz (default "dev").
	Version string
	// ClusterStatus, when non-nil, adds its result as the "peers" field
	// of the healthz body — cluster-mode dramthermd passes the remote
	// backend's Status method here.
	ClusterStatus func() any
	// Gossip, when non-nil, serves POST /v1/gossip exchanges against
	// this node and adds its membership table to the healthz body —
	// every dramthermd passes its gossip.Node here. When nil (an
	// embedded server without one) the endpoint answers 404.
	Gossip *gossip.Node
}

// DefaultMaxBatch is the default bound on specs per batch request —
// far above any sensible grid, low enough to reject garbage early.
const DefaultMaxBatch = 4096

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	eng       *sweep.Engine
	mux       *http.ServeMux
	jobs      *sweep.Jobs
	heartbeat time.Duration
	maxBatch  int
	log       *slog.Logger
	version   string
	cluster   func() any
	gossip    *gossip.Node
	started   time.Time

	// Instrumentation; all nil (and therefore no-ops) without Metrics.
	mReq        *obs.CounterVec   // {route, method, code}
	mLat        *obs.HistogramVec // {route}
	mInflight   *obs.Gauge
	mSSESubs    *obs.Gauge
	mSSEDropped *obs.Counter

	// encoded holds the JSON encoding of every result /v1/exec has
	// served, by the run's cache key. A result is a pure function of its
	// key, so an entry never goes stale; the table is unbounded like the
	// engine's run cache.
	encoded *memo.Table[sweep.Key, []byte]

	// base is the lifetime context of asynchronous jobs; cancelling it
	// (server shutdown) aborts in-flight simulations.
	base context.Context
}

// New wires the routes. base bounds the lifetime of async jobs. Call
// Close when done to stop the registry's background reaper.
func New(base context.Context, eng *sweep.Engine, cfg Config) *Server {
	if cfg.JobTTL == 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	s := &Server{
		eng:       eng,
		mux:       http.NewServeMux(),
		jobs:      sweep.NewJobs(sweep.JobsOptions{TTL: cfg.JobTTL, MaxJobs: cfg.MaxJobs}),
		heartbeat: cfg.Heartbeat,
		maxBatch:  cfg.MaxBatch,
		log:       cfg.Logger,
		version:   cfg.Version,
		cluster:   cfg.ClusterStatus,
		gossip:    cfg.Gossip,
		started:   time.Now(),
		encoded:   memo.New[sweep.Key, []byte](0),
		base:      base,
	}
	if s.log == nil {
		s.log = obs.LogfLogger(cfg.Logf)
	}
	if reg := cfg.Metrics; reg != nil {
		s.mReq = reg.CounterVec("dramtherm_http_requests_total",
			"HTTP requests served, by registered route pattern, method and status code.",
			"route", "method", "code")
		s.mLat = reg.HistogramVec("dramtherm_http_request_seconds",
			"HTTP request latency by registered route pattern.",
			obs.DefBuckets, "route")
		s.mInflight = reg.Gauge("dramtherm_http_inflight_requests",
			"Requests currently being served.")
		s.mSSESubs = reg.Gauge("dramtherm_sse_subscribers",
			"Open job event streams.")
		s.mSSEDropped = reg.Counter("dramtherm_sse_dropped_total",
			"Event streams that ended before delivering the job's terminal event (client gone, write failure, or server drain).")
		s.jobs.Instrument(reg)
		s.handle("GET /metrics", reg.Handler().ServeHTTP)
	}
	s.handle("GET /v1/healthz", s.handleHealthz)
	s.handle("POST "+gossip.Path, s.handleGossip)
	s.handle("POST /v1/runs", s.handleSubmitRun)
	s.handle("POST /v1/exec", s.handleExec)
	s.handle("POST /v1/exec/batch", s.handleExecBatch)
	s.handle("GET /v1/runs", s.handleListRuns)
	s.handle("GET /v1/runs/{id}", s.handleGetRun)
	s.handle("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.handle("DELETE /v1/runs/{id}", s.handleDeleteRun)
	s.handle("POST /v1/sweeps", s.handleSweep)
	return s
}

// Close stops the job registry's background reaper.
func (s *Server) Close() { s.jobs.Close() }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// runSummary is the wire form of a result: the scalar aggregates and,
// only when the client opts in with ?traces=1, the temperature traces.
type runSummary struct {
	Seconds    float64   `json:"seconds"`
	Normalized float64   `json:"normalized,omitempty"`
	TimedOut   bool      `json:"timed_out,omitempty"`
	Completed  int       `json:"completed"`
	ReadGB     float64   `json:"read_gb"`
	WriteGB    float64   `json:"write_gb"`
	MemEnergyJ float64   `json:"mem_energy_j"`
	CPUEnergyJ float64   `json:"cpu_energy_j"`
	MaxAMB     float64   `json:"max_amb_c"`
	MaxDRAM    float64   `json:"max_dram_c"`
	Overshoots int       `json:"overshoots"`
	AMBTrace   []float64 `json:"amb_trace,omitempty"`
	DRAMTrace  []float64 `json:"dram_trace,omitempty"`
}

func summarize(r sim.MEMSpotResult, traces bool) *runSummary {
	out := &runSummary{
		Seconds:    r.Seconds,
		TimedOut:   r.TimedOut,
		Completed:  r.Completed,
		ReadGB:     r.ReadGB,
		WriteGB:    r.WriteGB,
		MemEnergyJ: r.MemEnergyJ,
		CPUEnergyJ: r.CPUEnergyJ,
		MaxAMB:     r.MaxAMB,
		MaxDRAM:    r.MaxDRAM,
		Overshoots: r.Overshoots,
	}
	if traces {
		out.AMBTrace = r.AMBTrace
		out.DRAMTrace = r.DRAMTrace
	}
	return out
}

// writeJSON answers with v as json.Encoder encodes it. The body is
// encoded before the status is written, so a value that cannot be
// encoded (a NaN or ±Inf float) gets a 500, not the success status over
// an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.writeServerErr(w, r, fmt.Errorf("encoding reply: %w", err))
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody answers with a JSON body whose parts are written in order,
// under a Content-Length of their total size.
func writeBody(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // nothing to do about a dead client
		}
	}
}

// encodeResult returns the JSON encoding of res, the result of the run
// keyed key, encoding it at most once per key however many requests
// serve it. A failed encoding is not cached. The encoding is one
// bounded json.Marshal, so a request that finds another's in flight
// waits it out rather than watching for cancellation.
func (s *Server) encodeResult(key sweep.Key, res sim.MEMSpotResult) ([]byte, error) {
	body, _, err := s.encoded.Do(context.Background(), key, func(context.Context) ([]byte, error) {
		return json.Marshal(res)
	})
	return body, err
}

// quote returns the JSON encoding of str, as json.Marshal writes it.
func quote(str string) []byte {
	b, _ := json.Marshal(str) // a string always encodes
	return b
}

// writeServerErr reports a 5xx: the underlying error is logged
// server-side — tagged with the request's method, path and correlation
// id — and the client gets a generic envelope, so internal details
// (paths, config digests, backend state) never leak onto the wire.
func (s *Server) writeServerErr(w http.ResponseWriter, r *http.Request, err error) {
	s.log.Error("httpapi: internal error", s.reqAttrs(r, "err", err.Error())...)
	writeErr(w, http.StatusInternalServerError, CodeInternal, errors.New("internal error"))
}

// reqAttrs builds the request-context log attributes every error log
// carries, plus any extras.
func (s *Server) reqAttrs(r *http.Request, extra ...any) []any {
	out := []any{"method", r.Method, "path", r.URL.Path}
	if id := obs.RequestID(r.Context()); id != "" {
		out = append(out, "request_id", id)
	}
	return append(out, extra...)
}

// wantFlag reads a boolean query parameter ("1" or "true").
func wantFlag(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// healthzResponse is the GET /v1/healthz body: enough for liveness
// probes (status) and operators (version, uptime, cache traffic, and
// the cluster's ring and membership).
type healthzResponse struct {
	Status        string      `json:"status"`
	Version       string      `json:"version"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Workers       int         `json:"workers"`
	Jobs          int         `json:"jobs"`
	Cache         sweep.Stats `json:"cache"`
	Peers         any         `json:"peers,omitempty"` // []remote.PeerStatus when clustered
	// Membership is this node's gossip view of the cluster (id, url,
	// incarnation, alive/suspect/dead), present when the server has a
	// gossip node (every dramthermd does).
	Membership []gossip.Member `json:"membership,omitempty"`
	// State is the durable segment-log snapshot, present only when the
	// engine persists through one.
	State *sweep.StateStats `json:"state,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := healthzResponse{
		Status:        "ok",
		Version:       s.version,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.eng.Workers(),
		Jobs:          s.jobs.Len(),
		Cache:         s.eng.Stats(),
	}
	if s.cluster != nil {
		out.Peers = s.cluster()
	}
	if s.gossip != nil {
		out.Membership = s.gossip.Members()
	}
	if st, ok := s.eng.StateStats(); ok {
		out.State = &st
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// handleGossip serves the receiving half of an anti-entropy exchange:
// merge the caller's membership table, answer with ours. Malformed
// payloads are rejected whole (400) before they can touch the table.
func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	if s.gossip == nil {
		writeErr(w, http.StatusNotFound, CodeNotEnabled, errors.New("gossip is not enabled on this node"))
		return
	}
	var msg gossip.Message
	if !decodeBody(w, r, 8<<20, false, "gossip message", &msg) {
		return
	}
	if len(msg.Members) > gossip.MaxMembers {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("gossip message has %d members (max %d)", len(msg.Members), gossip.MaxMembers))
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.gossip.HandleExchange(msg))
}

// handleExec runs one spec synchronously and returns the full result
// plus the cache outcome. It is a client endpoint: on a coordinator the
// run itself reaches its peer as a one-spec /v1/exec/batch shard. Unlike
// the job endpoints it blocks for the simulation's duration; the client
// owns the timeout via its request context.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if !decodeBody(w, r, maxClientBytes, true, "spec", &spec) {
		return
	}
	if err := s.eng.Validate(spec); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	ctx, cancel := mergeDone(r.Context(), s.base)
	defer cancel()
	res, info, err := s.eng.Run(ctx, spec)
	if err != nil {
		// The status tells the client whether to retry. A cancellation
		// means this node is draining (or the caller hung up): 503,
		// retryable elsewhere. Any other run error is the spec's own
		// doing — a 422 is terminal.
		s.log.Warn("httpapi: exec failed", s.reqAttrs(r, "err", err.Error())...)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeErr(w, http.StatusServiceUnavailable, CodeNodeDraining, errors.New("node draining"))
		} else {
			writeErr(w, http.StatusUnprocessableEntity, CodeSpecFailed, err)
		}
		return
	}
	key := s.eng.Key(spec)
	result, err := s.encodeResult(key, res)
	if err != nil {
		s.writeServerErr(w, r, fmt.Errorf("encoding result %s: %w", key, err))
		return
	}
	// The body is byte for byte what json.NewEncoder writes for
	// remote.ExecResponse{Outcome, Result}.
	writeBody(w, http.StatusOK, []byte(`{"outcome":`), quote(info.Outcome.String()),
		[]byte(`,"result":`), result, []byte("}\n"))
}

// jobView is the wire rendering of one job. Total carries the spec
// count for both kinds.
type jobView struct {
	ID        string          `json:"id"`
	Kind      sweep.JobKind   `json:"kind"`
	Spec      *sweep.Spec     `json:"spec,omitempty"` // run jobs
	Status    sweep.JobStatus `json:"status"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Done      int             `json:"done"`
	Total     int             `json:"total"`
	Result    *runSummary     `json:"result,omitempty"` // run jobs, when done
	Sweep     *sweepResponse  `json:"sweep,omitempty"`  // sweep jobs, when done
	Search    *searchResponse `json:"search,omitempty"` // search jobs, when done
}

// sweepPayload is what a finished sweep job stores in the registry: the
// raw engine results, rendered into wire form at fetch time so the
// traces opt-in applies per request.
type sweepPayload struct {
	res       *sweep.Result
	normalize bool
	wall      float64
}

// viewJob renders a job snapshot. traces inlines temperature traces
// (?traces=1); specs inlines a search's per-round specs and objectives
// (?specs=1), as on the synchronous search response.
func (s *Server) viewJob(snap sweep.JobSnapshot, traces, specs bool) jobView {
	v := jobView{
		ID:        snap.ID,
		Kind:      snap.Kind,
		Status:    snap.Status,
		Error:     snap.Error,
		Submitted: snap.Submitted,
		Finished:  snap.Finished,
		Done:      snap.Done,
		Total:     snap.Total,
	}
	if snap.Kind == sweep.JobRun && len(snap.Specs) == 1 {
		v.Spec = &snap.Specs[0]
	}
	switch res := snap.Result.(type) {
	case sim.MEMSpotResult:
		v.Result = summarize(res, traces)
	case *sweepPayload:
		v.Sweep = s.sweepResponseOf(snap.Specs, res.res, res.normalize, res.wall, traces)
	case *searchPayload:
		v.Search = s.searchResponseOf(res.res, res.wall, specs)
	}
	return v
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if !decodeBody(w, r, maxClientBytes, true, "spec", &spec) {
		return
	}
	// Validate now so the client gets a 400 rather than a failed job.
	if err := s.eng.Validate(spec); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	// The job outlives the request, but its logs and dispatches keep the
	// submitting request's correlation id.
	job, err := s.jobs.Create(obs.WithRequestID(s.base, obs.RequestID(r.Context())), sweep.JobRun, []sweep.Spec{spec})
	if err != nil {
		// Registry exhaustion is load, not client error: 503 invites retry.
		writeErr(w, http.StatusServiceUnavailable, CodeRegistryFull, err)
		return
	}
	go func() {
		res, err := s.eng.Sweep(job.Context(), []sweep.Spec{spec}, sweep.Options{
			OnEvent: func(ev sweep.Event) { job.Publish(sweep.JobEventFrom(ev)) },
		})
		if err != nil {
			job.Finish(nil, err)
			return
		}
		job.Finish(res.Results[0], nil)
	}()
	s.writeJSON(w, r, http.StatusAccepted, map[string]string{"id": job.ID()})
}

// listResponse pages job listings.
type listResponse struct {
	Jobs   []jobView `json:"jobs"`
	Total  int       `json:"total"`
	Offset int       `json:"offset"`
	Limit  int       `json:"limit"`
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := sweep.JobStatus(q.Get("status"))
	switch status {
	case "", sweep.JobRunning, sweep.JobDone, sweep.JobError, sweep.JobCancelled:
	default:
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("unknown status %q", status))
		return
	}
	offset, err := intParam(q.Get("offset"), 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	limit, err := intParam(q.Get("limit"), 50)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if limit == 0 {
		limit = 50 // an explicit 0 must not mean "unbounded" on the wire
	}
	limit = min(limit, 500)
	snaps, total := s.jobs.List(status, offset, limit)
	out := listResponse{Jobs: make([]jobView, 0, len(snaps)), Total: total, Offset: offset, Limit: limit}
	for _, snap := range snaps {
		// Listings stay scalar: traces are per-job fetches only.
		out.Jobs = append(out.Jobs, s.viewJob(snap, false, false))
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

func intParam(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad integer parameter %q", v)
	}
	return n, nil
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, CodeJobNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.viewJob(job.Snapshot(), wantFlag(r, "traces"), wantFlag(r, "specs")))
}

func (s *Server) handleDeleteRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	evicted, ok := s.jobs.Cancel(id)
	switch {
	case !ok:
		writeErr(w, http.StatusNotFound, CodeJobNotFound, fmt.Errorf("unknown job %q", id))
	case evicted:
		s.writeJSON(w, r, http.StatusOK, map[string]string{"id": id, "status": "evicted"})
	default:
		// Cancellation is asynchronous: the job turns "cancelled" once
		// the simulation goroutine observes its dead context.
		s.writeJSON(w, r, http.StatusAccepted, map[string]string{"id": id, "status": "cancelling"})
	}
}

// sweepRequest is the POST /v1/sweeps body: either an explicit spec list
// or a grid to expand (or both, concatenated).
type sweepRequest struct {
	Specs     []sweep.Spec `json:"specs,omitempty"`
	Grid      *sweep.Grid  `json:"grid,omitempty"`
	Normalize bool         `json:"normalize,omitempty"`
	// Search switches the request from an exhaustive sweep to an
	// adaptive search over the same candidates.
	Search *searchRequest `json:"search,omitempty"`
}

// sweepResponse reports per-spec summaries plus the aggregate table.
type sweepResponse struct {
	Count   int           `json:"count"`
	Results []sweepResult `json:"results"`
	Table   tableJSON     `json:"table"`
	Cache   sweep.Stats   `json:"cache"`
	Wall    float64       `json:"wall_seconds"`
}

type sweepResult struct {
	Spec    sweep.Spec  `json:"spec"`
	Summary *runSummary `json:"summary"`
}

type tableJSON struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

func (s *Server) sweepResponseOf(specs []sweep.Spec, res *sweep.Result, normalize bool, wall float64, traces bool) *sweepResponse {
	out := &sweepResponse{Count: len(specs), Cache: s.eng.Stats(), Wall: wall}
	for i := range specs {
		sum := summarize(res.Results[i], traces)
		if normalize {
			sum.Normalized = res.Norms[i]
		}
		out.Results = append(out.Results, sweepResult{Spec: specs[i], Summary: sum})
	}
	tab := res.Table("sweep")
	out.Table = tableJSON{Header: tab.Header, Rows: tab.Rows}
	return out
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeBody(w, r, maxClientBytes, true, "sweep", &req) {
		return
	}
	if len(req.Specs)+gridSize(req.Grid) > maxSweepSpecs {
		writeErr(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("sweep exceeds %d specs (explicit plus grid)", maxSweepSpecs))
		return
	}
	specs := req.Specs
	if req.Grid != nil {
		specs = append(specs, req.Grid.Expand()...)
	}
	if len(specs) == 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("empty sweep: provide specs or a grid with mixes"))
		return
	}
	for _, sp := range specs {
		if err := s.eng.Validate(sp); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadSpec, err)
			return
		}
	}
	kind := sweep.JobSweep
	var search *sweep.SearchOptions
	if req.Search != nil {
		search = &sweep.SearchOptions{Normalize: req.Normalize, Rungs: req.Search.Rungs, Eta: req.Search.Eta}
		if err := search.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadSearch, err)
			return
		}
		kind = sweep.JobSearch
	}

	if wantFlag(r, "async") {
		job, err := s.jobs.Create(obs.WithRequestID(s.base, obs.RequestID(r.Context())), kind, specs)
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, CodeRegistryFull, err)
			return
		}
		go func() {
			job.Finish(s.execSweep(job.Context(), specs, req.Normalize, search,
				func(ev sweep.Event) { job.Publish(sweep.JobEventFrom(ev)) }))
		}()
		s.writeJSON(w, r, http.StatusAccepted, map[string]string{"id": job.ID()})
		return
	}

	// Synchronous: the sweep runs under the request context (client
	// disconnect cancels it) bounded by the server lifetime.
	ctx, cancel := mergeDone(r.Context(), s.base)
	defer cancel()
	payload, err := s.execSweep(ctx, specs, req.Normalize, search, nil)
	if err != nil {
		s.writeServerErr(w, r, err)
		return
	}
	switch p := payload.(type) {
	case *sweepPayload:
		s.writeJSON(w, r, http.StatusOK, s.sweepResponseOf(specs, p.res, p.normalize, p.wall, wantFlag(r, "traces")))
	case *searchPayload:
		s.writeJSON(w, r, http.StatusOK, s.searchResponseOf(p.res, p.wall, wantFlag(r, "specs")))
	}
}

// execSweep runs a validated sweep request under ctx — a search when
// search is non-nil — observed by onEvent (may be nil), and returns the
// payload viewJob renders: a *searchPayload or a *sweepPayload.
func (s *Server) execSweep(ctx context.Context, specs []sweep.Spec, normalize bool, search *sweep.SearchOptions, onEvent func(sweep.Event)) (any, error) {
	start := time.Now()
	if search != nil {
		opts := *search
		opts.OnEvent = onEvent
		res, err := s.eng.Search(ctx, specs, opts)
		if err != nil {
			return nil, err
		}
		return &searchPayload{res: res, wall: time.Since(start).Seconds()}, nil
	}
	res, err := s.eng.Sweep(ctx, specs, sweep.Options{Normalize: normalize, OnEvent: onEvent})
	if err != nil {
		return nil, err
	}
	return &sweepPayload{res: res, normalize: normalize, wall: time.Since(start).Seconds()}, nil
}

// maxClientBytes bounds a client request body (a spec or a sweep); a
// sweep of maxSweepSpecs explicit specs fits well inside it.
const maxClientBytes = 1 << 20

// maxSweepSpecs bounds one sweep request: its explicit specs plus the
// specs its grid expands to.
const maxSweepSpecs = 10000

// gridSize returns how many specs g expands to, or maxSweepSpecs+1 once
// that is exceeded: the product of its dimension lengths, computed
// without expanding it.
func gridSize(g *sweep.Grid) int {
	if g == nil {
		return 0
	}
	n := min(len(g.Mixes), maxSweepSpecs+1)
	for _, d := range []int{len(g.Policies), len(g.Coolings), len(g.Models), len(g.PsiXis), len(g.Intervals), len(g.Limits)} {
		n = min(n*max(d, 1), maxSweepSpecs+1)
	}
	return n
}

// decodeBody decodes a request body of at most limit bytes. On failure
// it answers the request itself (413 too_large for an oversized body,
// else 400) and returns false. Client endpoints decode strictly,
// rejecting fields they do not know: a misspelled or retired field must
// be a 400, not a silently different run. Node-to-node endpoints
// (batch, gossip) decode leniently so mixed-version clusters keep
// working.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, strict bool, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, CodeTooLarge, fmt.Errorf("%s body exceeds %d bytes", what, tooBig.Limit))
	case err != nil:
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("decoding %s: %w", what, err))
	}
	return err == nil
}

// mergeDone returns a context that is cancelled when either parent is.
func mergeDone(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}
