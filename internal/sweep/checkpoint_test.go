package sweep

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/obs"
)

// legacyCheckpoint returns a prefix-sharing group record as an older
// build framed it into the segment log: a gob prefix.GroupRecord of
// three decisions and two checkpoints.
func legacyCheckpoint(t *testing.T) []byte {
	t.Helper()
	payload, err := os.ReadFile(filepath.Join("testdata", "legacy_checkpoint.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// writeLog appends the frames, in order, to a fresh segment log in dir.
func writeLog(t *testing.T, dir string, frames ...func(*SegmentLog) error) {
	t.Helper()
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := f(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// frame is a writeLog step appending one record of kind.
func frame(kind byte, payload []byte) func(*SegmentLog) error {
	return func(l *SegmentLog) error { return l.Append(kind, payload) }
}

// frameKinds replays dir raw and counts its frames by kind.
func frameKinds(t *testing.T, dir string) map[byte]int {
	t.Helper()
	l, err := OpenSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	kinds := map[byte]int{}
	if err := l.Replay(func(kind byte, _ []byte) error {
		kinds[kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestPrefixGroupsNotPersisted: an engine with prefix sharing and a
// segment log appends only run and level-1 frames, and a fresh
// prefix-sharing engine on that directory serves every spec from its
// run records without building or leading a group.
func TestPrefixGroupsNotPersisted(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	dir := t.TempDir()
	specs := Grid{
		Mixes:    []string{"W1"},
		Policies: []string{"DTM-TS", "DTM-BW"},
		Coolings: []string{"AOHS_1.5", "FDHS_1.0"},
	}.Expand()
	e := NewEngine(core.NewSystem(tinyConfig()), 2)
	e.EnablePrefixSharing()
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sweep(context.Background(), specs, Options{}); err != nil {
		t.Fatal(err)
	}
	if ps, _ := e.PrefixStats(); ps.Leaders != 2 || ps.Checkpoints == 0 {
		t.Fatalf("prefix stats %+v, want 2 leaders holding checkpoints", ps)
	}
	l1Builds, _ := e.System().Store().Counts()
	st, _ := e.StateStats()
	if want := e.Stats().Builds + int64(l1Builds); st.Appends != want {
		t.Fatalf("%d frames appended, want %d (%d runs + %d level-1 records)", st.Appends, want, e.Stats().Builds, l1Builds)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := frameKinds(t, dir)[recordCheckpoint]; n != 0 {
		t.Fatalf("log holds %d checkpoint frames, want 0", n)
	}

	warm := NewEngine(core.NewSystem(tinyConfig()), 2)
	warm.EnablePrefixSharing()
	if err := warm.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	for _, sp := range specs {
		if _, info, err := warm.Run(context.Background(), sp); err != nil || info.Outcome != Hit {
			t.Fatalf("%s/%s: outcome %v, err %v; want a hit", sp.Policy, sp.Cooling, info.Outcome, err)
		}
	}
	if ps, _ := warm.PrefixStats(); ps.Groups != 0 {
		t.Fatalf("reopened engine holds %d prefix groups, want 0", ps.Groups)
	}
}

// TestLegacyCheckpointFrameSkipped: a checkpoint frame an older build
// wrote before a run record costs nothing on either kind of engine: the
// run is served as a hit, no group is imported, the frame is counted as
// skipped, and the open compacts it off the disk.
func TestLegacyCheckpointFrameSkipped(t *testing.T) {
	for _, sharing := range []bool{true, false} {
		dir := t.TempDir()
		e := NewEngine(core.NewSystem(tinyConfig()), 1)
		spec := Spec{Mix: "W1", Policy: "DTM-TS"}
		writeLog(t, dir,
			frame(recordCheckpoint, legacyCheckpoint(t)),
			frame(recordRun, runPayload(t, e.Key(spec), 7)))
		if sharing {
			e.EnablePrefixSharing()
		}
		reg := obs.NewRegistry()
		e.Instrument(reg)
		if err := e.EnableSegmentLog(dir, 0); err != nil {
			t.Fatal(err)
		}
		res, info, err := e.Run(context.Background(), spec)
		if err != nil || info.Outcome != Hit || res.Seconds != 7 {
			t.Fatalf("sharing=%v: outcome %v, seconds %v, err %v; want the replayed run as a hit", sharing, info.Outcome, res.Seconds, err)
		}
		if ps, _ := e.PrefixStats(); ps.Groups != 0 {
			t.Fatalf("sharing=%v: %d prefix groups imported, want 0", sharing, ps.Groups)
		}
		if n := reg.Sum("dramtherm_state_replay_skipped_total", map[string]string{"kind": "checkpoint"}); n != 1 {
			t.Fatalf("sharing=%v: skipped checkpoint frames metric reads %v, want 1", sharing, n)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if kinds := frameKinds(t, dir); kinds[recordCheckpoint] != 0 || kinds[recordRun] != 1 {
			t.Fatalf("sharing=%v: log holds %v by kind after the open, want only the run", sharing, kinds)
		}
	}
}

// TestCheckpointReplayIgnoredWithoutSharing: an engine that replays a
// log holding checkpoint records with prefix sharing disabled must not
// fail — the records are simply skipped.
func TestCheckpointReplayIgnoredWithoutSharing(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, frame(recordCheckpoint, legacyCheckpoint(t)))

	plain := NewEngine(core.NewSystem(tinyConfig()), 1)
	if err := plain.EnableSegmentLog(dir, 0); err != nil {
		t.Fatalf("replay with sharing disabled: %v", err)
	}
	defer plain.Close()
	if _, ok := plain.PrefixStats(); ok {
		t.Fatal("sharing reported enabled on a plain engine")
	}
}

// TestCheckpointCorruptReplaySkipped: a log whose checkpoint payload is
// garbage still replays — the bad record is dropped, not fatal.
func TestCheckpointCorruptReplaySkipped(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, frame(recordCheckpoint, []byte("definitely not gob")))
	e := NewEngine(core.NewSystem(tinyConfig()), 1)
	e.EnablePrefixSharing()
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatalf("corrupt checkpoint record aborted replay: %v", err)
	}
	defer e.Close()
	if ps, _ := e.PrefixStats(); ps.Groups != 0 {
		t.Fatalf("%d groups imported from garbage", ps.Groups)
	}
}

// TestSegmentLogDropsMangledCheckpointFrames: a torn tail or a flipped
// payload byte must cost exactly the damaged frame — replay keeps every
// frame before it, reports no error, and does not panic.
func TestSegmentLogDropsMangledCheckpointFrames(t *testing.T) {
	valid := legacyCheckpoint(t)
	write := func(t *testing.T, dir string) string {
		writeLog(t, dir, frame(recordCheckpoint, valid), frame(recordCheckpoint, valid))
		seg, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(seg) == 0 {
			t.Fatalf("no segment files: %v", err)
		}
		return seg[0]
	}

	t.Run("torn tail", func(t *testing.T) {
		dir := t.TempDir()
		seg := write(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-int64(len(valid)/2)); err != nil {
			t.Fatal(err)
		}
		if n := frameKinds(t, dir)[recordCheckpoint]; n != 1 {
			t.Fatalf("replayed %d checkpoint frames after tear, want 1", n)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		dir := t.TempDir()
		seg := write(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte inside the second frame's payload: the CRC catches it.
		data[len(data)-len(valid)/2] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if n := frameKinds(t, dir)[recordCheckpoint]; n != 1 {
			t.Fatalf("replayed %d checkpoint frames after corruption, want 1", n)
		}
	})
}
