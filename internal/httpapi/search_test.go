package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
)

// newSearchServer backs the API with a run function whose runtime is a
// fixed per-policy cost, so adaptive searches have a deterministic
// winner (DTM-BW) at every fidelity rung.
func newSearchServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	costs := map[string]float64{
		"DTM-TS": 120, "DTM-BW": 90, "DTM-ACG": 110, "DTM-CDVFS": 130,
	}
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	var fullFid atomic.Int64
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if rs.InstrScale == 0 || rs.InstrScale == 1 {
			fullFid.Add(1)
		}
		secs, ok := costs[rs.Policy.Name()]
		if !ok {
			secs = 100
		}
		return sim.MEMSpotResult{Seconds: secs, Completed: 4, MaxAMB: 100}, nil
	})
	api := New(context.Background(), eng, Config{Logf: func(string, ...any) {}})
	t.Cleanup(api.Close)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts, &fullFid
}

var searchGrid = sweep.Grid{
	Mixes:    []string{"W1"},
	Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
}

// TestSweepSearchSync: a synchronous search request prunes on the cheap
// rung and returns the true winner having fully simulated only the
// survivors.
func TestSweepSearchSync(t *testing.T) {
	ts, fullFid := newSearchServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{
		Grid:   &searchGrid,
		Search: &searchRequest{Rungs: []float64{0.25, 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res := decode[searchResponse](t, resp)
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2: %+v", len(res.Rounds), res.Rounds)
	}
	if r := res.Rounds[0]; r.Rung != 0.25 || r.Candidates != 4 || r.Pruned != 2 {
		t.Errorf("round 0 = %+v, want rung 0.25 over 4 candidates pruning 2", r)
	}
	if r := res.Rounds[1]; r.Rung != 1 || r.Candidates != 2 {
		t.Errorf("round 1 = %+v, want rung 1 over 2 candidates", r)
	}
	if res.Best.Policy != "DTM-BW" {
		t.Errorf("best = %v, want the cheapest policy DTM-BW", res.Best)
	}
	if res.FullFidelityRuns != 2 || res.TotalRuns != 6 {
		t.Errorf("runs = %d full / %d total, want 2/6", res.FullFidelityRuns, res.TotalRuns)
	}
	if got := fullFid.Load(); got != 2 {
		t.Errorf("full-fidelity simulations = %d, want 2 (half the grid)", got)
	}
	if len(res.Table.Rows) == 0 {
		t.Error("search response table is empty")
	}
}

// TestSweepSearchAsync: the async path runs the search as a job of kind
// "search" whose SSE stream carries round boundary events, and the
// fetched job embeds the search result.
func TestSweepSearchAsync(t *testing.T) {
	ts, _ := newSearchServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweeps?async=1", sweepRequest{
		Grid:   &searchGrid,
		Search: &searchRequest{Rungs: []float64{0.25, 1}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]

	stream, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := readSSE(t, stream.Body, nil)

	roundStarts, roundFinishes := 0, 0
	for _, ev := range events {
		switch ev.event {
		case string(sweep.EventRoundStarted):
			if ev.data.Rung <= 0 {
				t.Errorf("round_started without a rung: %+v", ev.data)
			}
			roundStarts++
		case string(sweep.EventRoundFinished):
			if ev.data.Round != roundFinishes {
				t.Errorf("round_finished out of order: %+v", ev.data)
			}
			if ev.data.Round == 0 && (ev.data.Survivors != 2 || ev.data.Pruned != 2) {
				t.Errorf("round 0 finished with %d survivors / %d pruned, want 2/2", ev.data.Survivors, ev.data.Pruned)
			}
			roundFinishes++
		}
	}
	if roundStarts != 2 || roundFinishes != 2 {
		t.Fatalf("round events = %d started / %d finished, want 2/2: %+v",
			roundStarts, roundFinishes, events)
	}
	if last := events[len(events)-1]; last.event != "done" {
		t.Fatalf("terminal event %+v", last)
	}

	job := pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status == sweep.JobDone })
	if job.Kind != sweep.JobSearch {
		t.Errorf("job kind = %q, want %q", job.Kind, sweep.JobSearch)
	}
	if job.Search == nil {
		t.Fatal("finished search job has no search result")
	}
	if job.Search.Best.Policy != "DTM-BW" {
		t.Errorf("best = %v, want DTM-BW", job.Search.Best)
	}
	if job.Sweep != nil {
		t.Error("search job must not carry a sweep payload")
	}
}

// TestSearchJobFetchFlags: on a finished search job, ?specs=1 inlines
// each round's specs and objectives, as on the synchronous response,
// while ?traces=1 (a run-summary flag) leaves the rounds scalar.
func TestSearchJobFetchFlags(t *testing.T) {
	ts, _ := newSearchServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweeps?async=1", sweepRequest{
		Grid:   &searchGrid,
		Search: &searchRequest{Rungs: []float64{0.25, 1}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	pollJob(t, ts.URL, id, func(j jobView) bool { return j.Status == sweep.JobDone })

	fetch := func(query string) []searchRound {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/runs/" + id + query)
		if err != nil {
			t.Fatal(err)
		}
		job := decode[jobView](t, r)
		if job.Search == nil || len(job.Search.Rounds) != 2 {
			t.Fatalf("GET %s: search = %+v, want 2 rounds", query, job.Search)
		}
		return job.Search.Rounds
	}
	for _, rd := range fetch("?traces=1") {
		if rd.Specs != nil || rd.Objectives != nil {
			t.Fatalf("?traces=1 inlined round %d's specs: %+v", rd.Index, rd)
		}
	}
	for _, rd := range fetch("?specs=1") {
		if len(rd.Specs) != rd.Candidates || len(rd.Objectives) != rd.Candidates {
			t.Fatalf("?specs=1: round %d has %d specs / %d objectives, want %d each",
				rd.Index, len(rd.Specs), len(rd.Objectives), rd.Candidates)
		}
	}
}

// TestSweepSearchValidation: every malformed search block is a 400 with
// the bad_search code, before any simulation starts.
func TestSweepSearchValidation(t *testing.T) {
	ts, fullFid := newSearchServer(t)
	cases := []struct {
		name   string
		search searchRequest
		want   string
	}{
		{"rung out of range", searchRequest{Rungs: []float64{0, 1}}, "rungs must be in (0, 1]"},
		{"rungs not ascending", searchRequest{Rungs: []float64{0.5, 0.5, 1}}, "strictly ascend"},
		{"last rung not full", searchRequest{Rungs: []float64{0.25, 0.5}}, "last search rung must be 1"},
		{"bad eta", searchRequest{Eta: 1}, "eta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{
				Grid: &searchGrid, Search: &tc.search,
			})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			e := decode[errorEnvelope](t, resp)
			if e.Error.Code != CodeBadSearch {
				t.Errorf("code = %q, want %q", e.Error.Code, CodeBadSearch)
			}
			if !strings.Contains(e.Error.Message, tc.want) {
				t.Errorf("message %q does not mention %q", e.Error.Message, tc.want)
			}
		})
	}
	if got := fullFid.Load(); got != 0 {
		t.Errorf("%d simulations ran for rejected requests, want 0", got)
	}
}
