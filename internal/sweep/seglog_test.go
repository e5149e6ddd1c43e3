package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/sim"
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

// TestEngineImportResult covers the replica/handoff ingestion path:
// digest-mismatched keys are rejected, imports are idempotent, and an
// imported result both persists and serves later Runs as a hit.
func TestEngineImportResult(t *testing.T) {
	var builds atomic.Int64
	e := testEngine(1, &builds, 0)
	if err := e.EnableSegmentLog(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	spec := Spec{Mix: "W1"}
	key := e.Key(spec)
	res := sim.MEMSpotResult{Seconds: 42}
	if e.ImportResult("deadbeef|W1|...", res) {
		t.Fatal("accepted a key from a different config digest")
	}
	if !e.ImportResult(key, res) {
		t.Fatal("rejected a well-formed import")
	}
	if e.ImportResult(key, res) {
		t.Fatal("re-import of a present key reported accepted")
	}
	got, info, err := e.Run(context.Background(), spec)
	if err != nil || info.Outcome != Hit || got.Seconds != 42 {
		t.Fatalf("run after import: %+v out=%v err=%v, want hit of imported result", got, info.Outcome, err)
	}
	if builds.Load() != 0 {
		t.Fatal("import did not prevent a rebuild")
	}
	if st, _ := e.StateStats(); st.Appends != 1 {
		t.Fatalf("import not persisted: %+v", st)
	}
}

// TestEngineImportResultOnce: concurrent deliveries of one key (two
// /v1/handoff requests racing) must accept exactly one import and append
// exactly one segment-log frame.
func TestEngineImportResultOnce(t *testing.T) {
	const (
		iterations = 500
		deliveries = 16
	)
	sys := core.NewSystem(core.DefaultConfig())
	root := t.TempDir()
	res := sim.MEMSpotResult{Seconds: 42}
	for iter := 0; iter < iterations; iter++ {
		e := NewEngine(sys, 1)
		if err := e.EnableSegmentLog(filepath.Join(root, strconv.Itoa(iter)), 0); err != nil {
			t.Fatal(err)
		}
		key := e.Key(Spec{Mix: "W1"})
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < deliveries; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if e.ImportResult(key, res) {
					accepted.Add(1)
				}
			}()
		}
		wg.Wait()
		st, _ := e.StateStats()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if n := accepted.Load(); n != 1 || st.Appends != 1 {
			t.Fatalf("iteration %d: %d imports accepted, %d frames appended; want 1 and 1", iter, n, st.Appends)
		}
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
