package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
)

// logKeys replays l and returns the run-record keys in replay order.
func logKeys(t *testing.T, l *SegmentLog) []Key {
	t.Helper()
	var keys []Key
	if err := l.Replay(func(kind byte, payload []byte) error {
		if kind != recordRun {
			return nil
		}
		var rec runRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return err
		}
		keys = append(keys, rec.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

func runPayload(t *testing.T, key Key, secs float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(runRecord{Key: key, Result: sim.MEMSpotResult{Seconds: secs}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSegmentLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{"a", "b", "c"} {
		if err := l.Append(recordRun, runPayload(t, k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := logKeys(t, l2); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("replayed keys = %v", got)
	}
	// Appends after a reopen+replay land cleanly past the existing tail.
	if err := l2.Append(recordRun, runPayload(t, "d", 1)); err != nil {
		t.Fatal(err)
	}
	if got := logKeys(t, l2); len(got) != 4 || got[3] != "d" {
		t.Fatalf("after append, keys = %v", got)
	}
}

// TestSegmentLogCrashReplay truncates the active segment mid-record —
// the on-disk state a crash mid-append leaves — and asserts the replay
// recovers every whole record, drops the torn tail, and appends resume
// on a clean frame boundary.
func TestSegmentLogCrashReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordRun, runPayload(t, "whole", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordRun, runPayload(t, "torn", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 3 bytes off its payload.
	path := segPath(dir, 1)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := logKeys(t, l2); len(got) != 1 || got[0] != "whole" {
		t.Fatalf("recovered keys = %v, want [whole]", got)
	}
	if st := l2.Stats(); st.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", st)
	}
	// The torn bytes are physically gone: a new append must replay back.
	if err := l2.Append(recordRun, runPayload(t, "after", 3)); err != nil {
		t.Fatal(err)
	}
	if got := logKeys(t, l2); len(got) != 2 || got[1] != "after" {
		t.Fatalf("post-recovery keys = %v, want [whole after]", got)
	}
}

// TestSegmentLogCorruptMidRecord flips a payload byte of an early record
// and asserts replay surfaces the later records as lost bytes rather
// than decoding garbage.
func TestSegmentLogCorruptMidRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordRun, runPayload(t, "first", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordRun, runPayload(t, "second", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := segPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[12+9+2] ^= 0xff // a payload byte of the first record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := logKeys(t, l2); len(got) != 0 {
		t.Fatalf("replay decoded corrupt data: %v", got)
	}
}

func TestSegmentLogVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	var hdr [12]byte
	copy(hdr[:8], stateMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], StateVersion+7)
	if err := os.WriteFile(segPath(dir, 1), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.Replay(func(byte, []byte) error { return nil })
	if !errors.Is(err, ErrStateVersion) {
		t.Fatalf("future-version replay err = %v, want ErrStateVersion", err)
	}
}

func TestSegmentLogBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), []byte("not a state file"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.Replay(func(byte, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad-magic replay err = %v", err)
	}
}

// TestSegmentLogCompact floods enough records to rotate, compacts, and
// asserts the folded log replays the identical live set from fewer
// segments while concurrent-era appends survive.
func TestSegmentLogCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	live := map[Key]bool{"a": true, "b": true}
	for k := range live {
		if err := l.Append(recordRun, runPayload(t, k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(func(emit func(byte, []byte) error) error {
		for k := range live {
			if err := emit(recordRun, runPayload(t, k, 1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends land in the fresh active segment.
	if err := l.Append(recordRun, runPayload(t, "c", 1)); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments != 2 {
		t.Fatalf("segments after compact = %d, want 2 (snapshot + active)", st.Segments)
	}
	got := map[Key]bool{}
	for _, k := range logKeys(t, l) {
		got[k] = true
	}
	if len(got) != 3 || !got["a"] || !got["b"] || !got["c"] {
		t.Fatalf("post-compact keys = %v", got)
	}
}

// TestEngineSegmentLogAppendsOnBuild checks the engine hooks: a built
// run and its level-1 trace records persist without any explicit save,
// replay into a fresh engine as pure cache hits, and Put-path restores
// do not re-append (no write amplification on restart).
func TestEngineSegmentLogAppendsOnBuild(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int64
	e := testEngine(2, &builds, 0)
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(context.Background(), Spec{Mix: "W1"}); err != nil {
		t.Fatal(err)
	}
	st, ok := e.StateStats()
	if !ok || st.Appends != 1 {
		t.Fatalf("state stats after one build = %+v ok=%v, want 1 append", st, ok)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := testEngine(2, &builds, 0)
	if err := e2.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if st2, _ := e2.StateStats(); st2.Appends != 0 {
		t.Fatalf("replay re-appended records: %+v", st2)
	}
	builds.Store(0)
	if _, info, err := e2.Run(context.Background(), Spec{Mix: "W1"}); err != nil || info.Outcome != Hit {
		t.Fatalf("restored run: out=%v err=%v, want Hit", info.Outcome, err)
	}
	if builds.Load() != 0 {
		t.Fatal("restored engine rebuilt a persisted run")
	}
}

// TestEngineCompactState folds a multi-record log and checks the live
// set survives exactly.
func TestEngineCompactState(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int64
	e := testEngine(2, &builds, 0)
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	for _, mix := range []string{"W1", "W2", "W3"} {
		if _, _, err := e.Run(context.Background(), Spec{Mix: mix}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CompactState(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := testEngine(2, &builds, 0)
	if err := e2.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	builds.Store(0)
	for _, mix := range []string{"W1", "W2", "W3"} {
		if _, info, err := e2.Run(context.Background(), Spec{Mix: mix}); err != nil || info.Outcome != Hit {
			t.Fatalf("mix %s after compact: out=%v err=%v", mix, info.Outcome, err)
		}
	}
	if builds.Load() != 0 {
		t.Fatal("compaction lost live records")
	}
}

// traceBits renders every field of a level-1 record — float fields as
// IEEE bit patterns, PerApp in name order — so two records compare equal
// only when they are bit-identical.
func traceBits(r trace.Rates) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q f=%x cap=%x off=%v rd=%x wr=%x lat=%x", r.Point.Apps,
		math.Float64bits(r.Point.FreqGHz), math.Float64bits(r.Point.BWCapGBps), r.Point.MemOff,
		math.Float64bits(r.TotalReadGBps), math.Float64bits(r.TotalWriteGBps), math.Float64bits(r.MeanLatencyNS))
	names := make([]string, 0, len(r.PerApp))
	for n := range r.PerApp {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, " %s:", n)
		v := reflect.ValueOf(r.PerApp[n])
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(&b, " %x", math.Float64bits(v.Field(i).Float()))
		}
	}
	return b.String()
}

// roundTripRecords returns level-1 records covering an uncapped point, a
// capped point, a multi-app PerApp, an app whose rates are all zero and a
// MemOff point, with float values chosen to expose any lossy encoding.
func roundTripRecords() []trace.Rates {
	uncapped := trace.Zero(trace.DesignPoint{Apps: "applu|swim", FreqGHz: 3.2, BWCapGBps: math.Inf(1)})
	uncapped.PerApp["applu"] = trace.AppRates{InstrPerSec: 1.7e9 / 3, IPCRef: 0.1, ReadGBps: 2.6, WriteGBps: 1e-300,
		L2MissPerSec: 3.3e7, L2AccessPerSec: math.Nextafter(9e7, 1e8), MemBoundFrac: 0.73}
	uncapped.PerApp["swim"] = trace.AppRates{InstrPerSec: 2.2e9, IPCRef: 2.0 / 3, ReadGBps: 4.1, WriteGBps: 2.3,
		L2MissPerSec: 5e-324, L2AccessPerSec: 1.25e8, MemBoundFrac: 1}
	uncapped.TotalReadGBps, uncapped.TotalWriteGBps, uncapped.MeanLatencyNS = 6.7, 2.3+1e-15, 151.3

	capped := trace.Zero(trace.DesignPoint{Apps: "galgel|mgrid|mgrid", FreqGHz: 1.6, BWCapGBps: 6.4})
	capped.PerApp["mgrid"] = trace.AppRates{InstrPerSec: 8e8, IPCRef: 0.55, ReadGBps: 2.9, WriteGBps: 0.3,
		L2MissPerSec: 4.4e7, L2AccessPerSec: 6.1e7, MemBoundFrac: 0.41}
	// galgel keeps its all-zero rates.
	capped.TotalReadGBps, capped.TotalWriteGBps, capped.MeanLatencyNS = 5.8, 0.6, 212.9

	off := trace.Zero(trace.DesignPoint{Apps: "swim", FreqGHz: 3.2, BWCapGBps: 12.8, MemOff: true})
	return []trace.Rates{uncapped, capped, off}
}

// writeTraceLog appends recs to a segment log in dir through the engine's
// build hook path and closes it.
func writeTraceLog(t *testing.T, dir string, recs []trace.Rates) {
	t.Helper()
	e := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		e.appendTrace(r, e.l1digest)
	}
	if st, _ := e.StateStats(); st.Appends != int64(len(recs)) || st.AppendErrors != 0 {
		t.Fatalf("state stats = %+v, want %d appends", st, len(recs))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkTraceReplay opens dir in a fresh engine and requires its store to
// hold exactly recs, bit-identical through both Range and Get, with zero
// level-1 builds. The caller closes the returned engine.
func checkTraceReplay(t *testing.T, dir, stage string, recs []trace.Rates) *Engine {
	t.Helper()
	e := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	store := e.System().Store()
	if store.Len() != len(recs) {
		t.Fatalf("%s: replayed %d records, want %d", stage, store.Len(), len(recs))
	}
	got := map[trace.DesignPoint]trace.Rates{}
	store.Range(func(r trace.Rates) bool {
		got[r.Point] = r
		return true
	})
	for _, want := range recs {
		r, ok := got[want.Point]
		if !ok {
			t.Fatalf("%s: %v not replayed", stage, want.Point)
		}
		if traceBits(r) != traceBits(want) {
			t.Fatalf("%s: replayed record differs:\n got %s\nwant %s", stage, traceBits(r), traceBits(want))
		}
		r, err := store.Get(want.Point)
		if err != nil {
			t.Fatal(err)
		}
		if traceBits(r) != traceBits(want) {
			t.Fatalf("%s: Get(%v) differs:\n got %s\nwant %s", stage, want.Point, traceBits(r), traceBits(want))
		}
	}
	if builds, _ := store.Counts(); builds != 0 {
		t.Fatalf("%s: %d level-1 builds, want 0", stage, builds)
	}
	return e
}

// TestTraceRecordsRoundTripBitExact appends level-1 records to the segment
// log and checks a fresh engine replays every one bit-identically from the
// appended frames, with zero level-1 builds.
func TestTraceRecordsRoundTripBitExact(t *testing.T) {
	recs := roundTripRecords()
	dir := t.TempDir()
	writeTraceLog(t, dir, recs)
	if err := checkTraceReplay(t, dir, "appended log", recs).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceRecordsReplayAfterCompact checks level-1 records survive
// compaction: after CompactState rewrites the log as a snapshot, a fresh
// engine still replays every record bit-identically with zero builds.
func TestTraceRecordsReplayAfterCompact(t *testing.T) {
	recs := roundTripRecords()
	dir := t.TempDir()
	writeTraceLog(t, dir, recs)
	e := checkTraceReplay(t, dir, "appended log", recs)
	if err := e.CompactState(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkTraceReplay(t, dir, "compacted log", recs).Close(); err != nil {
		t.Fatal(err)
	}
}

// seededEngine opens dir in a fresh default-config engine whose level-1
// streams use seed.
func seededEngine(t *testing.T, dir string, seed int64) *Engine {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	e := NewEngine(core.NewSystem(cfg), 1)
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTraceRecordsScopedByLevel1Digest: level-1 records built at one
// seed are not replayed into an engine at another. The reader skips and
// counts them, rebuilds the point on demand, and a same-seed reader
// replays its own record bit-identically. The reader's open compacted
// the foreign record away, so the next reader skips nothing.
func TestTraceRecordsScopedByLevel1Digest(t *testing.T) {
	dir := t.TempDir()
	dp := trace.DesignPoint{Apps: "swim", FreqGHz: 3.2, BWCapGBps: math.Inf(1)}

	w := seededEngine(t, dir, 7)
	if _, err := w.System().Store().Get(dp); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := seededEngine(t, dir, 1)
	store := r.System().Store()
	if st, _ := r.StateStats(); store.Len() != 0 || st.SkippedTraces != 1 {
		t.Fatalf("seed-1 reader of a seed-7 log: replayed %d, skipped %d; want 0 and 1", store.Len(), st.SkippedTraces)
	}
	own, err := store.Get(dp)
	if err != nil {
		t.Fatal(err)
	}
	if builds, _ := store.Counts(); builds != 1 {
		t.Fatalf("foreign point: %d level-1 builds, want 1", builds)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	again := seededEngine(t, dir, 1)
	store = again.System().Store()
	got, err := store.Get(dp)
	if err != nil {
		t.Fatal(err)
	}
	if builds, _ := store.Counts(); builds != 0 || traceBits(got) != traceBits(own) {
		t.Fatalf("same-digest replay: %d builds, rates\n%s\nwant\n%s", builds, traceBits(got), traceBits(own))
	}
	if st, _ := again.StateStats(); st.SkippedTraces != 0 {
		t.Fatalf("skipped %d, want 0: the seed-1 reader's open dropped the seed-7 record", st.SkippedTraces)
	}
	if err := again.CompactState(); err != nil {
		t.Fatal(err)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	compacted := seededEngine(t, dir, 1)
	defer compacted.Close()
	if st, _ := compacted.StateStats(); compacted.System().Store().Len() != 1 || st.SkippedTraces != 0 {
		t.Fatalf("after compaction: replayed %d, skipped %d; want 1 and 0", compacted.System().Store().Len(), st.SkippedTraces)
	}
}

// TestForeignRecordsCompactedAtOpen: a directory holding one foreign
// and one own run record replays as one entry and one skip, and the open
// leaves only the own record in the directory.
func TestForeignRecordsCompactedAtOpen(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	own := e.Key(Spec{Mix: "W1"})
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordRun, runPayload(t, "deadbeef|W1|...", 42)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordRun, runPayload(t, own, 7)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.StateStats(); e.Stats().Entries != 1 || st.SkippedRuns != 1 {
		t.Fatalf("replayed %d runs, skipped %d; want 1 and 1", e.Stats().Entries, st.SkippedRuns)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var keys []Key
	if err := l.Replay(func(kind byte, payload []byte) error {
		var rec runRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return err
		}
		keys = append(keys, rec.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != own {
		t.Fatalf("directory holds %q after the open, want only %q", keys, own)
	}
}

// TestForeignRecordsSkippedOnReplay: a trace frame without a digest (as
// binaries before digests wrote them) and a run record keyed under
// another ConfigDigest are both skipped: neither is served, Range does
// not return the run, and StateStats and /metrics count them by kind.
func TestForeignRecordsSkippedOnReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := roundTripRecords()[0]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Rates trace.Rates }{rec}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordTrace, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recordRun, runPayload(t, "deadbeef|W1|...", 42)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := e.System().Store().Len(); n != 0 {
		t.Fatalf("replayed %d digest-less trace records, want 0", n)
	}
	if n := e.Stats().Entries; n != 0 {
		t.Errorf("run cache holds %d entries after replaying only a foreign run record, want 0", n)
	}
	if st, _ := e.StateStats(); st.SkippedRuns != 1 || st.SkippedTraces != 1 {
		t.Fatalf("state stats = %+v, want one skipped run and one skipped trace", st)
	}
	for _, kind := range []string{"run", "trace"} {
		if n := reg.Sum("dramtherm_state_replay_skipped_total", map[string]string{"kind": kind}); n != 1 {
			t.Errorf("skipped %s records: metric reads %v, want 1", kind, n)
		}
	}
}
