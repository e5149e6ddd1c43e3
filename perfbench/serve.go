package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/httpapi"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
)

// serveRequests is the number of /v1/exec requests in one unit of work.
// Every unit starts a fresh server, so each spec's first request misses
// (a level-2 run plus a segment-log append) and the rest hit; with 32
// specs about 3% of requests miss, which puts op_p99_ms on the miss path
// and op_p50_ms on the hit path.
const serveRequests = 1000

// spanHeader carries the client span id to the server in traced units.
const spanHeader = "X-Perfbench-Span"

// wantReply is what /v1/exec must answer for one spec: the engine's
// own result, encoded as the server encodes it, under any outcome.
type wantReply struct {
	spec      sweep.Spec
	body      []byte
	responses map[string][]byte
	digest    string
}

func newWantReplies(specs []sweep.Spec, ref []sim.MEMSpotResult) ([]*wantReply, error) {
	out := make([]*wantReply, len(specs))
	for i, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		w := &wantReply{spec: sp, body: body, responses: make(map[string][]byte), digest: resultDigest(ref[i])}
		for _, o := range []sweep.Outcome{sweep.Built, sweep.Hit, sweep.Joined} {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(remote.ExecResponse{Outcome: o.String(), Result: ref[i]}); err != nil {
				return nil, err
			}
			w.responses[o.String()] = buf.Bytes()
		}
		out[i] = w
	}
	return out, nil
}

// match reports the response's outcome and whether its result equals
// the engine's. Byte equality with the expected encoding is the fast
// path; any other body is decoded and compared statistic by statistic.
func (w *wantReply) match(body []byte) (string, bool) {
	for o, want := range w.responses {
		if bytes.Equal(body, want) {
			return o, true
		}
	}
	var r remote.ExecResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return "", false
	}
	_, known := w.responses[r.Outcome]
	return r.Outcome, known && resultDigest(r.Result) == w.digest
}

// requestSequence draws one unit's requests from the spec pool.
func requestSequence(seed int64, unit, n, pool int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(unit)))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(pool)
	}
	return seq
}

// serveExec: /v1/exec on an in-process dramthermd — httpapi.Server on a
// loopback listener over an engine with a segment log and prefix
// sharing — with traces warmed by the policy × limits grid. Two
// closed-loop clients each wait for a reply before sending the next
// request, like a cluster coordinator.
func serveExec(b *bench) error {
	ctx := context.Background()
	sys := core.NewSystem(b.config(defaultSeed))
	specs := gridSpecs()
	t0 := time.Now()
	ref, _ := b.sweep(ctx, sweep.NewEngine(sys, workers), specs)
	b.setupOnce = time.Since(t0).Seconds()
	if ref == nil {
		return nil
	}
	b.checkGolden(defaultSeed, resultsDigest(ref))
	want, err := newWantReplies(specs, ref)
	if err != nil {
		return err
	}

	builds0, hits0 := sys.Store().Counts()
	err = b.measure(1, func(i int) error {
		return b.serveUnit(ctx, sys, want, requestSequence(b.opts.seed, i, serveRequests, len(specs)), nil)
	})
	if err != nil {
		return err
	}
	builds1, hits1 := sys.Store().Counts()
	b.check(builds1 == builds0, "measured phase built %d level-1 records, want 0", builds1-builds0)
	n := float64(len(b.walls))
	b.recordTraceCounts(float64(builds1-builds0)/n, float64(hits1-hits0)/n)
	if !b.opts.trace {
		return nil
	}
	return b.serveUnit(ctx, sys, want, requestSequence(b.opts.seed, 0, serveRequests, len(specs)), newTracer())
}

// reply is one request's outcome as a client saw it.
type reply struct {
	err     error
	status  int
	bytes   int
	outcome string
	ok      bool
}

// serveUnit starts a fresh server over sys, sends seq from two
// closed-loop clients and checks every reply. With tr set, the unit is
// the traced one: the engine's runs go through a traced backend and
// client and server spans are recorded.
func (b *bench) serveUnit(ctx context.Context, sys *core.System, want []*wantReply, seq []int, tr *tracer) error {
	t0 := time.Now()
	dir, err := os.MkdirTemp(b.opts.workdir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng := sweep.NewEngine(sys, workers)
	var tb *tracedBackend
	if tr == nil {
		eng.EnablePrefixSharing()
	} else {
		l1 := newTimedBuilder(tr, newSimLevel1(sys.Config()))
		l1.preload(sys.Store())
		tb = newTracedBackend(tr, eng, l1, true)
		eng.SetBackend(tb)
		ckpt, err := tb.persistCheckpoints(dir + "-checkpoints")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir + "-checkpoints")
		defer ckpt.Close()
	}
	if err := eng.EnableSegmentLog(dir, 0); err != nil {
		return err
	}
	defer eng.Close()
	srvCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv := httpapi.New(srvCtx, eng, httpapi.Config{Logf: func(format string, args ...any) {
		fmt.Fprintf(b.opts.log, format+"\n", args...)
	}})
	defer srv.Close()
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler(tr, srv)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	tp := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}
	if tr == nil {
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}

	replies := make([]reply, len(seq))
	lats := make([]float64, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := int64(0)
	if tr != nil {
		start = tr.now()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1) - 1)
				if k >= len(seq) {
					return
				}
				replies[k], lats[k] = execOnce(ctx, hc, ts.URL, tr, want[seq[k]], &buf)
			}
		}()
	}
	wg.Wait()
	var a attribution
	if tr != nil {
		a = tr.attribute(start, tr.now())
	}

	outcomes := make(map[string]int64)
	respBytes := 0
	distinct := make(map[int]bool)
	for k, r := range replies {
		spec := want[seq[k]].spec
		distinct[seq[k]] = true
		if r.err == nil && (r.status < 200 || r.status > 299) {
			r.err = fmt.Errorf("status %d", r.status)
		}
		if !b.op(r.err, "exec "+spec.String()) {
			continue
		}
		b.check(r.ok, "exec %s: reply differs from the engine's result", spec)
		outcomes[r.outcome]++
		respBytes += r.bytes
	}
	st := eng.Stats()
	b.check(int(st.Builds) == len(distinct), "engine ran %d specs for %d distinct requests", st.Builds, len(distinct))
	b.check(st.Builds+st.Hits+st.Waits == int64(len(seq)), "engine served %d lookups for %d requests",
		st.Builds+st.Hits+st.Waits, len(seq))
	b.check(outcomes["built"] == st.Builds, "%d replies say built, engine ran %d", outcomes["built"], st.Builds)
	ss, _ := eng.StateStats()
	b.check(ss.AppendErrors == 0, "%d segment-log appends failed", ss.AppendErrors)
	if tb != nil {
		b.check(tb.appendErrs.Load() == 0, "%d checkpoint appends failed", tb.appendErrs.Load())
	}
	if tr == nil {
		b.lats = append(b.lats, lats...)
		b.ops += len(seq)
		b.recordCounts(eng)
		b.layer["http.requests"] = float64(len(seq))
		b.layer["http.resp_bytes"] = float64(respBytes)
		return nil
	}
	b.layer["level2.windows"] = float64(tb.level2Windows())
	b.layer["dtm.decisions"] = float64(tb.decisions.Load())
	b.recordAttribution(a, median(b.walls))
	return nil
}

// execOnce sends one request and checks its reply; the latency covers
// the round trip up to the last byte of the body.
func execOnce(ctx context.Context, hc *http.Client, url string, tr *tracer, w *wantReply, buf *bytes.Buffer) (reply, float64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+remote.ExecPath, bytes.NewReader(w.body))
	if err != nil {
		return reply{err: err}, 0
	}
	var sp *openSpan
	if tr != nil {
		_, sp = tr.begin(nil, layerHTTPClient)
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0).Seconds()
	if sp != nil {
		sp.end()
	}
	if err != nil {
		return reply{err: err}, lat
	}
	r := reply{status: resp.StatusCode, bytes: buf.Len()}
	r.outcome, r.ok = w.match(buf.Bytes())
	return r, lat
}

// tracedHandler wraps the server so each request is a span whose parent
// is the client span named in the request header.
func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			ctx = context.WithValue(ctx, spanKey{}, id)
		}
		ctx, sp := tr.begin(ctx, layerHTTPServer)
		next.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}
