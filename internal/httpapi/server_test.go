package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
	"dramtherm/internal/sweep/remote/gossip"
)

// newTestServer backs the API with a counting fake run function so API
// tests exercise routing, job lifecycle and deduplication without paying
// for real simulations.
func newTestServer(t *testing.T, workers int, delay time.Duration, cfg Config) (*httptest.Server, *atomic.Int64, *sweep.Engine) {
	t.Helper()
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), workers)
	var builds atomic.Int64
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		builds.Add(1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return sim.MEMSpotResult{}, ctx.Err()
		}
		secs := 100.0
		if rs.Policy.Name() != "No-limit" {
			secs = 120
		}
		return sim.MEMSpotResult{
			Seconds: secs, Completed: 4, MaxAMB: 108,
			AMBTrace: []float64{80, 100, 108}, DRAMTrace: []float64{70, 80, 84},
		}, nil
	})
	api := New(context.Background(), eng, cfg)
	t.Cleanup(api.Close)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts, &builds, eng
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func doReq(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollJob GETs the job until pred is satisfied or the deadline passes.
func pollJob(t *testing.T, baseURL, id string, pred func(jobView) bool) jobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(baseURL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		job := decode[jobView](t, r)
		if pred(job) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached expected state: %+v", job)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	ts, _, eng := newTestServer(t, 2, 0, Config{Version: "9.9-test"})
	if _, _, err := eng.Run(context.Background(), sweep.Spec{Mix: "W1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	h := decode[map[string]any](t, resp)
	if h["status"] != "ok" || h["version"] != "9.9-test" {
		t.Fatalf("healthz = %v", h)
	}
	if _, ok := h["uptime_seconds"].(float64); !ok {
		t.Fatalf("healthz lacks numeric uptime_seconds: %v", h)
	}
	if h["workers"].(float64) != 2 {
		t.Fatalf("healthz workers = %v, want 2", h["workers"])
	}
	cache, ok := h["cache"].(map[string]any)
	if !ok || cache["entries"].(float64) != 1 || cache["builds"].(float64) != 1 {
		t.Fatalf("healthz cache = %v, want 1 entry / 1 build", h["cache"])
	}
	if _, clustered := h["peers"]; clustered {
		t.Fatalf("unclustered healthz reports peers: %v", h)
	}
}

// TestHealthzClustered: with a ClusterStatus hook the body additionally
// carries the peer ring.
func TestHealthzClustered(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 0, Config{
		ClusterStatus: func() any { return []map[string]any{{"id": "w1", "up": true}} },
	})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[map[string]any](t, resp)
	peers, ok := h["peers"].([]any)
	if !ok || len(peers) != 1 {
		t.Fatalf("clustered healthz peers = %v", h["peers"])
	}
}

// TestExec: the synchronous cluster-dispatch endpoint returns the full
// result plus the serving node's cache outcome.
func TestExec(t *testing.T) {
	ts, builds, _ := newTestServer(t, 2, 0, Config{})
	resp := postJSON(t, ts.URL+"/v1/exec", sweep.Spec{Mix: "W1", Policy: "DTM-ACG"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec status %d", resp.StatusCode)
	}
	er := decode[remote.ExecResponse](t, resp)
	if er.Outcome != "built" || er.Result.Seconds != 120 {
		t.Fatalf("exec = %+v, want built/120s", er)
	}
	if len(er.Result.AMBTrace) == 0 {
		t.Fatal("exec response dropped the traces — coordinator caches would be incomplete")
	}
	// The same spec again is a cache hit on this node.
	resp = postJSON(t, ts.URL+"/v1/exec", sweep.Spec{Mix: "W1", Policy: "DTM-ACG"})
	if er := decode[remote.ExecResponse](t, resp); er.Outcome != "hit" {
		t.Fatalf("repeat exec outcome %q, want hit", er.Outcome)
	}
	if builds.Load() != 1 {
		t.Fatalf("%d builds for two identical execs", builds.Load())
	}

	// Bad specs are the client's problem: 400, not failover bait.
	resp = postJSON(t, ts.URL+"/v1/exec", sweep.Spec{Mix: "W1", Policy: "DTM-NOPE"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad exec status %d, want 400", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}

func TestRunLifecycle(t *testing.T) {
	ts, builds, _ := newTestServer(t, 2, 5*time.Millisecond, Config{})
	resp := postJSON(t, ts.URL+"/v1/runs", sweep.Spec{Mix: "W1", Policy: "DTM-ACG"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	if id == "" {
		t.Fatal("no job id")
	}

	job := pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status.Terminal() })
	if job.Status != sweep.JobDone || job.Result == nil {
		t.Fatalf("job = %+v", job)
	}
	if job.Result.Seconds != 120 || job.Result.MaxAMB != 108 {
		t.Fatalf("result = %+v", job.Result)
	}
	if job.Result.AMBTrace != nil {
		t.Fatalf("traces returned without traces=1: %+v", job.Result)
	}
	if job.Spec == nil || job.Spec.Mix != "W1" {
		t.Fatalf("spec = %+v", job.Spec)
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d", builds.Load())
	}

	// Unknown job id is a 404.
	r, err := http.Get(ts.URL + "/v1/runs/run-999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", r.StatusCode)
	}
}

func TestRunTracesOptIn(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 0, Config{})
	resp := postJSON(t, ts.URL+"/v1/runs", sweep.Spec{Mix: "W1"})
	id := decode[map[string]string](t, resp)["id"]
	pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status == sweep.JobDone })

	r, err := http.Get(ts.URL + "/v1/runs/" + id + "?traces=1")
	if err != nil {
		t.Fatal(err)
	}
	job := decode[jobView](t, r)
	if len(job.Result.AMBTrace) != 3 || len(job.Result.DRAMTrace) != 3 {
		t.Fatalf("traces missing with traces=1: %+v", job.Result)
	}
}

func TestRunValidation(t *testing.T) {
	ts, builds, _ := newTestServer(t, 2, 0, Config{})
	for _, body := range []any{
		sweep.Spec{Mix: "W99"},
		sweep.Spec{Mix: "W1", Policy: "DTM-NOPE"},
		map[string]any{"mix": []int{1}},
	} {
		resp := postJSON(t, ts.URL+"/v1/runs", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %v: status %d, want 400", body, resp.StatusCode)
		}
	}
	if builds.Load() != 0 {
		t.Fatalf("invalid specs reached the backend %d times", builds.Load())
	}
}

func TestListRunsFilterAndPagination(t *testing.T) {
	ts, _, _ := newTestServer(t, 4, 0, Config{})
	var ids []string
	for _, mix := range []string{"W1", "W2", "W3", "W4"} {
		resp := postJSON(t, ts.URL+"/v1/runs", sweep.Spec{Mix: mix})
		ids = append(ids, decode[map[string]string](t, resp)["id"])
	}
	for _, id := range ids {
		pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status == sweep.JobDone })
	}

	all := decode[listResponse](t, doReq(t, http.MethodGet, ts.URL+"/v1/runs"))
	if all.Total != 4 || len(all.Jobs) != 4 {
		t.Fatalf("list all = %d/%d, want 4/4", len(all.Jobs), all.Total)
	}
	// Newest first: the last-submitted job leads.
	if all.Jobs[0].ID != ids[3] || all.Jobs[3].ID != ids[0] {
		t.Fatalf("ordering: %s .. %s", all.Jobs[0].ID, all.Jobs[3].ID)
	}
	// Listings never include trace payloads.
	if all.Jobs[1].Result != nil && all.Jobs[1].Result.AMBTrace != nil {
		t.Fatalf("listing leaked traces: %+v", all.Jobs[1].Result)
	}

	done := decode[listResponse](t, doReq(t, http.MethodGet, ts.URL+"/v1/runs?status=done"))
	if done.Total != 4 {
		t.Fatalf("done total = %d, want 4", done.Total)
	}
	running := decode[listResponse](t, doReq(t, http.MethodGet, ts.URL+"/v1/runs?status=running"))
	if running.Total != 0 {
		t.Fatalf("running total = %d, want 0", running.Total)
	}

	page := decode[listResponse](t, doReq(t, http.MethodGet, ts.URL+"/v1/runs?offset=1&limit=2"))
	if page.Total != 4 || len(page.Jobs) != 2 {
		t.Fatalf("page = %d/%d, want 2/4", len(page.Jobs), page.Total)
	}
	if page.Jobs[0].ID != ids[2] || page.Jobs[1].ID != ids[1] {
		t.Fatalf("page content: %s, %s", page.Jobs[0].ID, page.Jobs[1].ID)
	}

	for _, q := range []string{"?status=nope", "?offset=-1", "?limit=x"} {
		r := doReq(t, http.MethodGet, ts.URL+"/v1/runs"+q)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r.StatusCode)
		}
	}
}

// TestDeleteRun covers both DELETE paths: cancelling an in-flight job
// (the simulation actually stops) and evicting a finished one.
func TestDeleteRun(t *testing.T) {
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	started := make(chan struct{}, 16)
	stopped := make(chan struct{}, 16)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		started <- struct{}{}
		<-ctx.Done()
		stopped <- struct{}{}
		return sim.MEMSpotResult{}, ctx.Err()
	})
	api := New(context.Background(), eng, Config{})
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/runs", sweep.Spec{Mix: "W1"})
	id := decode[map[string]string](t, resp)["id"]
	<-started // genuinely in flight

	del := doReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+id)
	if del.StatusCode != http.StatusAccepted {
		t.Fatalf("delete running status %d", del.StatusCode)
	}
	if st := decode[map[string]string](t, del)["status"]; st != "cancelling" {
		t.Fatalf("delete running = %q", st)
	}
	select {
	case <-stopped: // the simulation observed cancellation
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight simulation did not stop")
	}
	job := pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status.Terminal() })
	if job.Status != sweep.JobCancelled || job.Error == "" {
		t.Fatalf("cancelled job = %+v", job)
	}

	// Second DELETE evicts the now-finished job; a third is a 404.
	del = doReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+id)
	if st := decode[map[string]string](t, del)["status"]; del.StatusCode != http.StatusOK || st != "evicted" {
		t.Fatalf("delete finished = %d %q", del.StatusCode, st)
	}
	g := doReq(t, http.MethodGet, ts.URL+"/v1/runs/"+id)
	g.Body.Close()
	if g.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still fetchable: %d", g.StatusCode)
	}
	del = doReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+id)
	del.Body.Close()
	if del.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown status %d", del.StatusCode)
	}
}

// TestJobTTLEviction checks finished jobs disappear after the TTL.
func TestJobTTLEviction(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 0, Config{JobTTL: 30 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/runs", sweep.Spec{Mix: "W1"})
	id := decode[map[string]string](t, resp)["id"]
	pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status == sweep.JobDone })

	deadline := time.Now().Add(5 * time.Second)
	for {
		r := doReq(t, http.MethodGet, ts.URL+"/v1/runs/"+id)
		r.Body.Close()
		if r.StatusCode == http.StatusNotFound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never evicted by TTL reaper")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  sweep.JobEvent
}

// readSSE parses frames from an SSE stream until the terminal event or
// EOF, counting heartbeat comments on the side.
func readSSE(t *testing.T, body io.Reader, heartbeats *int) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if cur.event == "done" || cur.event == "error" || cur.event == "cancelled" {
					return events
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ":"):
			if heartbeats != nil {
				*heartbeats++
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return events
}

// TestSSEEventOrdering streams an async sweep job and checks the event
// log arrives complete and ordered: job started first, one started and
// one finished event per spec, terminal done last, sequence numbers
// strictly increasing. Run under -race this exercises the publisher /
// streamer locking.
func TestSSEEventOrdering(t *testing.T) {
	ts, builds, _ := newTestServer(t, 4, 5*time.Millisecond, Config{})
	grid := sweep.Grid{Mixes: []string{"W1", "W2"}, Policies: []string{"DTM-TS", "DTM-BW"}}
	resp := postJSON(t, ts.URL+"/v1/sweeps?async=1", sweepRequest{Grid: &grid})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]

	stream, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, stream.Body, nil)

	if len(events) != 1+4+4+1 {
		t.Fatalf("got %d events, want 10: %+v", len(events), events)
	}
	if events[0].event != "started" || events[0].data.Total != 4 {
		t.Fatalf("first event %+v", events[0])
	}
	last := events[len(events)-1]
	if last.event != "done" || last.data.Done != 4 {
		t.Fatalf("terminal event %+v", last)
	}
	starts, finishes := 0, 0
	for i, ev := range events {
		if ev.data.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.data.Seq)
		}
		switch ev.event {
		case string(sweep.EventStarted):
			starts++
		case string(sweep.EventFinished):
			finishes++
			if ev.data.Outcome == "" || ev.data.Seconds == 0 {
				t.Fatalf("finish event without outcome/runtime: %+v", ev.data)
			}
		}
	}
	if starts != 4 || finishes != 4 {
		t.Fatalf("starts=%d finishes=%d, want 4/4", starts, finishes)
	}
	if builds.Load() != 4 {
		t.Fatalf("builds = %d, want 4", builds.Load())
	}

	// The job result is fetchable after the terminal event.
	job := pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status == sweep.JobDone })
	if job.Sweep == nil || job.Sweep.Count != 4 {
		t.Fatalf("async sweep result = %+v", job)
	}
	if job.Kind != sweep.JobSweep || job.Total != 4 {
		t.Fatalf("job view = %+v", job)
	}
}

// TestSSELateSubscriberAndHeartbeat: a subscriber that connects after
// events were published still sees the full log from seq 0, and an idle
// stream carries heartbeat comments.
func TestSSELateSubscriberAndHeartbeat(t *testing.T) {
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	release := make(chan struct{})
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		select {
		case <-release:
			return sim.MEMSpotResult{Seconds: 100}, nil
		case <-ctx.Done():
			return sim.MEMSpotResult{}, ctx.Err()
		}
	})
	api := New(context.Background(), eng, Config{Heartbeat: 20 * time.Millisecond})
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/runs", sweep.Spec{Mix: "W1"})
	id := decode[map[string]string](t, resp)["id"]

	// Let the run start (and publish its spec_started) before
	// subscribing, then hold it open across a few heartbeat periods.
	time.Sleep(50 * time.Millisecond)
	stream, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	heartbeats := 0
	events := readSSE(t, stream.Body, &heartbeats)
	if len(events) < 3 { // started, spec_started, spec_finished, done
		t.Fatalf("late subscriber saw only %d events: %+v", len(events), events)
	}
	if events[0].event != "started" || events[0].data.Seq != 0 {
		t.Fatalf("late subscriber missed the replayed start: %+v", events[0])
	}
	if events[len(events)-1].event != "done" {
		t.Fatalf("no terminal event: %+v", events)
	}
	if heartbeats == 0 {
		t.Fatal("idle stream carried no heartbeats")
	}
}

func TestSSEUnknownJob(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 0, Config{})
	r := doReq(t, http.MethodGet, ts.URL+"/v1/runs/run-404/events")
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", r.StatusCode)
	}
}

// TestInternalErrorsDoNotLeak: a backend failure during a synchronous
// sweep is logged server-side and returned as a generic 500 body, while
// client-caused validation errors stay verbatim.
func TestInternalErrorsDoNotLeak(t *testing.T) {
	const secret = "secret backend detail: /var/lib/dramtherm"
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		return sim.MEMSpotResult{}, fmt.Errorf("%s", secret)
	})
	var logged bytes.Buffer
	api := New(context.Background(), eng, Config{
		Logf: func(format string, v ...any) { fmt.Fprintf(&logged, format+"\n", v...) },
	})
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{Specs: []sweep.Spec{{Mix: "W1"}}})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if strings.Contains(string(body), secret) {
		t.Fatalf("internal error leaked to client: %s", body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("unexpected 500 body: %s", body)
	}
	if !strings.Contains(logged.String(), secret) {
		t.Fatalf("internal error not logged server-side: %q", logged.String())
	}

	// Validation errors, by contrast, stay verbatim.
	resp = postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{Specs: []sweep.Spec{{Mix: "W99"}}})
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "W99") {
		t.Fatalf("validation error not verbatim: %d %s", resp.StatusCode, body)
	}
}

// TestSweepDedup is the acceptance scenario: a sweep over 8 (mix,
// policy) combinations, submitted with every spec duplicated, runs
// concurrently with exactly one simulation per unique spec.
func TestSweepDedup(t *testing.T) {
	ts, builds, eng := newTestServer(t, 8, 5*time.Millisecond, Config{})
	grid := sweep.Grid{
		Mixes:    []string{"W1", "W2", "W3", "W4"},
		Policies: []string{"DTM-TS", "DTM-BW"},
	} // 8 unique combinations
	specs := grid.Expand()
	req := sweepRequest{Grid: &grid, Specs: specs} // every spec twice
	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/sweeps", req)
	wall := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[sweepResponse](t, resp)
	if out.Count != 16 {
		t.Fatalf("count = %d, want 16", out.Count)
	}
	if builds.Load() != 8 {
		t.Fatalf("backend ran %d simulations, want 8 (duplicate in-flight specs must dedup)", builds.Load())
	}
	if st := eng.Stats(); st.Builds != 8 || st.Hits+st.Waits != 8 {
		t.Fatalf("cache stats %+v", st)
	}
	// 8 × 5 ms of work on 8 workers must not serialize to 40 ms+.
	if wall > 4*time.Second {
		t.Fatalf("sweep wall %v suggests serial execution", wall)
	}
	// The table aggregates mixes × policies.
	if len(out.Table.Rows) != 4 || len(out.Table.Header) != 3 {
		t.Fatalf("table %dx%d: %+v", len(out.Table.Rows), len(out.Table.Header), out.Table)
	}
	for _, res := range out.Results {
		if res.Summary.Seconds != 120 {
			t.Fatalf("summary %+v", res.Summary)
		}
		if res.Summary.AMBTrace != nil {
			t.Fatalf("sync sweep leaked traces without traces=1: %+v", res.Summary)
		}
	}
}

func TestSweepNormalize(t *testing.T) {
	ts, _, _ := newTestServer(t, 4, 0, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{
		Grid:      &sweep.Grid{Mixes: []string{"W1"}, Policies: []string{"DTM-TS"}},
		Normalize: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[sweepResponse](t, resp)
	if n := out.Results[0].Summary.Normalized; n != 1.2 {
		t.Fatalf("normalized = %v, want 1.2", n)
	}
}

func TestSweepTraces(t *testing.T) {
	ts, _, _ := newTestServer(t, 4, 0, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweeps?traces=1", sweepRequest{
		Specs: []sweep.Spec{{Mix: "W1"}},
	})
	out := decode[sweepResponse](t, resp)
	if len(out.Results[0].Summary.AMBTrace) != 3 {
		t.Fatalf("sync sweep with traces=1 missing traces: %+v", out.Results[0].Summary)
	}
}

func TestSweepValidation(t *testing.T) {
	ts, builds, _ := newTestServer(t, 2, 0, Config{})
	for _, req := range []sweepRequest{
		{}, // empty
		{Grid: &sweep.Grid{}},
		{Specs: []sweep.Spec{{Mix: "W1"}, {Mix: "W77"}}},
	} {
		resp := postJSON(t, ts.URL+"/v1/sweeps", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("req %+v: status %d, want 400", req, resp.StatusCode)
		}
	}
	if builds.Load() != 0 {
		t.Fatalf("invalid sweeps reached the backend %d times", builds.Load())
	}
}

// TestClientBodiesStrict: the client endpoints reject unknown body
// fields — retired search keys and misspelled spec or grid fields —
// with 400 bad_request before any simulation runs.
func TestClientBodiesStrict(t *testing.T) {
	ts, builds, _ := newTestServer(t, 2, 0, Config{})
	grid := `"grid":{"mixes":["W1"],"policies":["DTM-TS","DTM-BW"]}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweeps", `{` + grid + `,"search":{"strategy":"halving"}}`},
		{"/v1/sweeps", `{` + grid + `,"search":{"rungs":[0.25,1],"slack":0.1}}`},
		{"/v1/sweeps?async=1", `{` + grid + `,"search":{"max_rounds":3}}`},
		{"/v1/sweeps", `{"grid":{"mixes":["W1"],"polices":["DTM-TS"]}}`},
		{"/v1/sweeps", `{"specs":[{"mix":"W1","policy":"DTM-TS","instrscale":0.25}]}`},
		{"/v1/runs", `{"mix":"W1","polcy":"DTM-TS"}`},
		{"/v1/exec", `{"mix":"W1","policy":"DTM-TS","limits":{"AMBTDP":100,"AMBTRPX":99}}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Errorf("POST %s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
			continue
		}
		if e := decode[errorEnvelope](t, resp); e.Error.Code != CodeBadRequest || !strings.Contains(e.Error.Message, "unknown field") {
			t.Errorf("POST %s %s: error %+v, want bad_request naming the unknown field", tc.path, tc.body, e.Error)
		}
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("rejected bodies reached the run function %d times, want 0", n)
	}
}

// TestClientBodiesBounded: a sweep whose explicit specs plus grid
// expansion exceed maxSweepSpecs, and a client body over maxClientBytes
// on any client endpoint, get 413 too_large before any spec is
// expanded, validated or run.
func TestClientBodiesBounded(t *testing.T) {
	ts, builds, _ := newTestServer(t, 2, 0, Config{})
	psis := make([]float64, maxSweepSpecs+1)
	for i := range psis {
		psis[i] = float64(i + 1)
	}
	oneOver := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{Grid: &sweep.Grid{Mixes: []string{"W1"}, PsiXis: psis}})
	if oneOver.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("grid of %d specs: status %d, want 413", len(psis), oneOver.StatusCode)
	}
	if e := decode[errorEnvelope](t, oneOver); e.Error.Code != CodeTooLarge {
		t.Errorf("grid of %d specs: error %+v, want too_large", len(psis), e.Error)
	}
	// The cap counts explicit specs too, and saturates on huge products.
	mixes := make([]string, 1000)
	for i := range mixes {
		mixes[i] = "W1"
	}
	for _, req := range []sweepRequest{
		{Specs: []sweep.Spec{{Mix: "W1"}}, Grid: &sweep.Grid{Mixes: []string{"W1"}, PsiXis: psis[:maxSweepSpecs]}},
		{Grid: &sweep.Grid{Mixes: mixes, PsiXis: psis[:1000], Intervals: psis[:1000], Limits: make([]fbconfig.ThermalLimits, 1000)}},
	} {
		resp := postJSON(t, ts.URL+"/v1/sweeps?async=1", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("sweep over the cap: status %d, want 413", resp.StatusCode)
		}
	}
	big := `{"mix":"W1","policy":"` + strings.Repeat("x", maxClientBytes) + `"}`
	for _, path := range []string{"/v1/exec", "/v1/runs", "/v1/sweeps"} {
		body := big
		if path == "/v1/sweeps" {
			body = `{"specs":[` + big + `]}`
		}
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s of %d bytes: status %d, want 413", path, len(body), resp.StatusCode)
		}
		resp.Body.Close()
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("oversized requests ran %d specs, want 0", n)
	}
}

// TestServerShutdownCancelsJobs checks async jobs abort when the server
// base context is cancelled (graceful shutdown path).
func TestServerShutdownCancelsJobs(t *testing.T) {
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	started := make(chan struct{}, 16)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		started <- struct{}{}
		<-ctx.Done()
		return sim.MEMSpotResult{}, ctx.Err()
	})
	base, cancel := context.WithCancel(context.Background())
	api := New(base, eng, Config{})
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/runs", sweep.Spec{Mix: "W1"})
	id := decode[map[string]string](t, resp)["id"]
	<-started // the job is genuinely in flight
	cancel()  // server shutdown

	job := pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status.Terminal() })
	if job.Status != sweep.JobError && job.Status != sweep.JobCancelled {
		t.Fatalf("job after shutdown: %+v", job)
	}
	if job.Error == "" {
		t.Fatal("terminated job has no error")
	}
}

// TestSweepRealTiny drives one real reduced-scale simulation through the
// full HTTP path, proving the service end-to-end.
func TestSweepRealTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	cfg := core.DefaultConfig()
	cfg.Replicas = 1
	cfg.InstrScale = 0.01
	eng := sweep.NewEngine(core.NewSystem(cfg), 2)
	api := New(context.Background(), eng, Config{})
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{
		Specs: []sweep.Spec{{Mix: "W1"}, {Mix: "W1", Policy: "DTM-TS"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[sweepResponse](t, resp)
	for i, r := range out.Results {
		if r.Summary.Seconds <= 0 {
			t.Fatalf("result %d: %+v", i, r.Summary)
		}
	}
	if out.Results[1].Summary.Seconds < out.Results[0].Summary.Seconds {
		t.Fatalf("DTM-TS (%v s) ran faster than No-limit (%v s)",
			out.Results[1].Summary.Seconds, out.Results[0].Summary.Seconds)
	}
}

// TestGossipEndpointDisabled: without a gossip node the exchange
// endpoint answers 404 and healthz carries no membership table.
func TestGossipEndpointDisabled(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 0, Config{})
	resp := postJSON(t, ts.URL+gossip.Path, gossip.Message{From: "x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("gossip on a non-gossip node: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	h := decode[map[string]any](t, doReq(t, http.MethodGet, ts.URL+"/v1/healthz"))
	if _, ok := h["membership"]; ok {
		t.Fatalf("non-gossip healthz reports membership: %v", h)
	}
}

// TestGossipExchange: a valid exchange merges the caller's members and
// answers with this node's table; the merged member then shows up in
// the healthz membership.
func TestGossipExchange(t *testing.T) {
	node, err := gossip.NewNode(gossip.Config{
		Self:     gossip.Member{ID: "self", URL: "http://self"},
		Interval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	ts, _, _ := newTestServer(t, 1, 0, Config{Gossip: node})

	resp := postJSON(t, ts.URL+gossip.Path, gossip.Message{
		From:    "w1",
		Members: []gossip.Member{{ID: "w1", URL: "http://w1", Incarnation: 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gossip exchange status %d", resp.StatusCode)
	}
	reply := decode[gossip.Message](t, resp)
	if reply.From != "self" || len(reply.Members) != 2 {
		t.Fatalf("gossip reply = %+v, want from=self with self+w1", reply)
	}

	h := decode[map[string]any](t, doReq(t, http.MethodGet, ts.URL+"/v1/healthz"))
	membership, ok := h["membership"].([]any)
	if !ok || len(membership) != 2 {
		t.Fatalf("gossip healthz membership = %v, want 2 rows", h["membership"])
	}
}

// TestGossipExchangeRejectsMalformed: garbage and over-limit payloads
// get a 400 and never touch the membership table.
func TestGossipExchangeRejectsMalformed(t *testing.T) {
	node, err := gossip.NewNode(gossip.Config{
		Self:     gossip.Member{ID: "self", URL: "http://self"},
		Interval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	ts, _, _ := newTestServer(t, 1, 0, Config{Gossip: node})

	for _, body := range []string{`{"members":`, `[]`, `{"members":[{"id":"x","state":"zombie"}]}`} {
		resp, err := http.Post(ts.URL+gossip.Path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed gossip body %q: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	oversized := gossip.Message{From: "x", Members: make([]gossip.Member, gossip.MaxMembers+1)}
	for i := range oversized.Members {
		oversized.Members[i] = gossip.Member{ID: fmt.Sprintf("m%d", i)}
	}
	resp := postJSON(t, ts.URL+gossip.Path, oversized)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized gossip body: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if got := len(node.Members()); got != 1 {
		t.Fatalf("rejected payloads mutated the table: %d members, want just self", got)
	}
}
