package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
)

// newGatedServer backs the API with a run function that blocks until
// gate is closed (a nil gate never blocks) and fails DTM-BW runs, so a
// test can hold a build in flight while other requests join it.
func newGatedServer(t *testing.T, workers int, gate chan struct{}) (*httptest.Server, *Server, *sweep.Engine) {
	t.Helper()
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), workers)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.MEMSpotResult{}, ctx.Err()
			}
		}
		if rs.Policy.Name() == "DTM-BW" {
			return sim.MEMSpotResult{}, errors.New("boom")
		}
		return sim.MEMSpotResult{
			Seconds: 120.25, Completed: 4, ReadGB: 1.5, MaxAMB: 108.125, MaxDRAM: 84.5,
			AMBTrace: []float64{80, 100.5, 108.125}, DRAMTrace: []float64{70, 80.25, 84.5},
			AmbientTrace: []float64{45, 45.5, 46},
			TimeAtFreq:   map[int]float64{0: 100, 3: 20.25},
		}, nil
	})
	api := New(context.Background(), eng, Config{Logf: func(string, ...any) {}})
	t.Cleanup(api.Close)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts, api, eng
}

// execRaw posts spec to /v1/exec and returns the reply's status, header
// and raw body. It reports failures with t.Error, so other goroutines
// may call it.
func execRaw(t *testing.T, url string, spec sweep.Spec) (int, http.Header, []byte) {
	t.Helper()
	b, _ := json.Marshal(spec) // strings only: always encodes
	resp, err := http.Post(url+remote.ExecPath, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Error(err)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, resp.Header, body
}

// wantExecBody is the reference encoding of a /v1/exec reply.
func wantExecBody(t *testing.T, outcome string, res sim.MEMSpotResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(remote.ExecResponse{Outcome: outcome, Result: res}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// engineResult returns the result the engine holds for spec.
func engineResult(t *testing.T, eng *sweep.Engine, spec sweep.Spec) sim.MEMSpotResult {
	t.Helper()
	res, info, err := eng.Run(context.Background(), spec)
	if err != nil || info.Outcome != sweep.Hit {
		t.Fatalf("engine lookup of %s: outcome %v, err %v; want a hit", spec, info.Outcome, err)
	}
	return res
}

// TestExecBodyBytes: /v1/exec bodies are byte for byte what
// json.NewEncoder writes for remote.ExecResponse, under a matching
// Content-Length, for built, joined and hit outcomes alike.
func TestExecBodyBytes(t *testing.T) {
	gate := make(chan struct{})
	ts, _, eng := newGatedServer(t, 2, gate)
	spec := sweep.Spec{Mix: "W1", Policy: "DTM-ACG"}

	type reply struct {
		status int
		header http.Header
		body   []byte
	}
	replies := make([]reply, 2)
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		replies[i].status, replies[i].header, replies[i].body = execRaw(t, ts.URL, spec)
	}
	wg.Add(1)
	go send(0)
	waitFor(t, func() bool { return eng.Stats().Builds == 1 })
	wg.Add(1)
	go send(1)
	waitFor(t, func() bool { return eng.Stats().Waits == 1 })
	close(gate)
	wg.Wait()
	var r reply
	r.status, r.header, r.body = execRaw(t, ts.URL, spec)
	replies = append(replies, r)

	want := engineResult(t, eng, spec)
	for i, outcome := range []string{"built", "joined", "hit"} {
		r := replies[i]
		if r.status != http.StatusOK {
			t.Fatalf("%s reply: status %d, body %s", outcome, r.status, r.body)
		}
		if w := wantExecBody(t, outcome, want); !bytes.Equal(r.body, w) {
			t.Errorf("%s reply differs from json.NewEncoder's:\n got %s\nwant %s", outcome, r.body, w)
		}
		if cl := r.header.Get("Content-Length"); cl != fmt.Sprint(len(r.body)) {
			t.Errorf("%s reply: Content-Length %q for a %d-byte body", outcome, cl, len(r.body))
		}
		if ct := r.header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s reply: Content-Type %q", outcome, ct)
		}
	}
}

// TestExecBatchLineBytes: /v1/exec/batch lines are byte for byte
// json.Marshal of remote.BatchLine plus a newline, for result lines and
// error lines alike.
func TestExecBatchLineBytes(t *testing.T) {
	ts, _, eng := newGatedServer(t, 2, nil)
	ok := sweep.Spec{Mix: "W1", Policy: "DTM-TS"}
	bad := sweep.Spec{Mix: "W1", Policy: "DTM-BW"}

	resp := postJSON(t, ts.URL+remote.BatchPath, remote.BatchRequest{Specs: []sweep.Spec{ok, bad}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	got := make(map[int][]byte)
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			var l remote.BatchLine
			if err := json.Unmarshal(line, &l); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			got[l.Index] = line
		}
		if err != nil {
			break
		}
	}

	res := engineResult(t, eng, ok)
	for i, l := range []remote.BatchLine{
		{Index: 0, Key: string(eng.Key(ok)), Outcome: "built", Result: &res},
		{Index: 1, Key: string(eng.Key(bad)), Error: "boom"},
	} {
		want, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got[i], want) {
			t.Errorf("batch line %d differs from json.Marshal's:\n got %s\nwant %s", i, got[i], want)
		}
	}
}

// TestExecEncodesOncePerKey: concurrent first requests for one run
// encode its result once and all get the same bytes.
func TestExecEncodesOncePerKey(t *testing.T) {
	ts, api, eng := newGatedServer(t, 2, nil)
	spec := sweep.Spec{Mix: "W2", Policy: "DTM-ACG"}
	if _, _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, body := execRaw(t, ts.URL, spec)
			if status != http.StatusOK {
				t.Errorf("status %d, body %s", status, body)
			}
			bodies[i] = body
		}()
	}
	wg.Wait()
	want := wantExecBody(t, "hit", engineResult(t, eng, spec))
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("reply %d differs:\n got %s\nwant %s", i, b, want)
		}
	}
	if st := api.encoded.Stats(); st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("encoded table %+v after %d concurrent requests, want 1 build and 1 entry", st, n)
	}
}

// TestWriteJSONEncodeFailure: a value json cannot encode gets a logged
// 500 with the internal envelope, never the success status over an
// empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	var logged bytes.Buffer
	api := New(context.Background(), sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 1), Config{
		Logf: func(format string, v ...any) { fmt.Fprintf(&logged, format+"\n", v...) },
	})
	defer api.Close()
	rec := httptest.NewRecorder()
	api.writeJSON(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil), http.StatusOK,
		map[string]float64{"seconds": math.NaN()})
	assertInternalErr(t, rec.Code, rec.Body.Bytes())
	if !strings.Contains(logged.String(), "NaN") {
		t.Errorf("encoding failure not logged: %q", logged.String())
	}
}

// TestExecEncodeFailureNotCached: a cached result json cannot encode
// (a NaN temperature) fails /v1/exec with a 500 on every request: the
// failure is never cached.
func TestExecEncodeFailureNotCached(t *testing.T) {
	ts, api, eng := newGatedServer(t, 2, nil)
	spec := sweep.Spec{Mix: "W3", Policy: "DTM-TS"}
	if !eng.ImportResult(eng.Key(spec), sim.MEMSpotResult{Seconds: 100, MaxAMB: math.NaN()}) {
		t.Fatal("import refused")
	}
	for range 2 {
		status, _, body := execRaw(t, ts.URL, spec)
		assertInternalErr(t, status, body)
	}
	if st := api.encoded.Stats(); st.Builds != 2 || st.Entries != 0 {
		t.Fatalf("encoded table %+v, want 2 failed builds and no entry", st)
	}
}

func assertInternalErr(t *testing.T, status int, body []byte) {
	t.Helper()
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %s", status, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeInternal {
		t.Fatalf("body %q (%v), want the %q envelope", body, err, CodeInternal)
	}
}
