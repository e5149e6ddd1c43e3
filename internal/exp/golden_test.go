//go:build !race

// The goldens run real simulations and platform emulations (tens of
// seconds in total); the race detector would multiply that several-fold,
// so the -race suite covers the sweep paths with stub builders instead
// (internal/sweep's TestMachineSweep and its neighbours).

package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current drivers")

// TestChapter5Golden pins the rendered quick-mode output of three
// Chapter 5 figures and requires every runner width to reproduce it
// byte for byte: fan-out may change how runs are scheduled, never what
// they produce or the order results are reduced in.
func TestChapter5Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("Chapter 5 goldens run full quick-mode emulations; skipped in -short mode")
	}
	for _, id := range []string{"fig5.4", "fig5.13", "fig5.15"} {
		path := filepath.Join("testdata", id+".quick.golden")
		if *updateGolden {
			d, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run(NewRunnerParallel(true, 1))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if err := os.WriteFile(path, []byte(res.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", id, w), func(t *testing.T) {
				d, err := Lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Run(NewRunnerParallel(true, w))
				if err != nil {
					t.Fatal(err)
				}
				if got := res.String(); got != string(want) {
					t.Errorf("%s at width %d differs from %s:\n%s", id, w, path, got)
				}
			})
		}
	}
}

// chapter4IDs are the Chapter 4 figures TestChapter4Golden pins.
var chapter4IDs = []string{
	"fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "fig4.7", "fig4.8",
	"fig4.9", "fig4.10", "fig4.11", "fig4.12", "fig4.13", "fig4.14",
}

// TestChapter4Golden pins the rendered output of every Chapter 4 figure
// on one shared quick-mode runner over a 2-worker engine. One batch copy
// per application at half application length keeps the 13 figures in
// the tens of seconds while both coolings still throttle (at much
// smaller scales every normalized cell reads 1 and pins nothing). The
// figures share the engine's run cache, as they do under memtherm.
func TestChapter4Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("Chapter 4 goldens run real level-2 simulations; skipped in -short mode")
	}
	cfg := RunnerConfig(true)
	cfg.Replicas = 1
	cfg.InstrScale = 0.5
	r := NewRunnerFor(sweep.NewEngine(core.NewSystem(cfg), 2), true)
	for _, id := range chapter4IDs {
		t.Run(id, func(t *testing.T) {
			d, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run(r)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".ch4.golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(res.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.String(); got != string(want) {
				t.Errorf("%s differs from %s:\n%s", id, path, got)
			}
		})
	}
}

// TestChapter5RunsShareEngine checks that Chapter 5 runs go through the
// engine's run cache and segment log as Chapter 4 runs do. fig5.15's
// 100 ms-quantum runs are fig5.6's PE1950 DTM-ACG runs, so fig5.15
// after fig5.6 scores hits; and fig5.15 rerun on a reopened segment log
// builds no run and no level-1 record (nothing is appended) and renders
// the same figure.
func TestChapter5RunsShareEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick-mode emulations; skipped in -short mode")
	}
	dir := t.TempDir()
	open := func() *Runner {
		eng := sweep.NewEngine(core.NewSystem(RunnerConfig(true)), 2)
		if err := eng.EnableSegmentLog(dir, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return NewRunnerFor(eng, true)
	}
	run := func(r *Runner, id string) string {
		d, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return res.String()
	}

	r := open()
	run(r, "fig5.6")
	before := r.Eng.Stats().Hits
	want := run(r, "fig5.15")
	if hits := r.Eng.Stats().Hits - before; hits < 2 {
		t.Fatalf("fig5.15 after fig5.6 scored %d run-cache hits, want >= 2", hits)
	}
	if err := r.Eng.Close(); err != nil {
		t.Fatal(err)
	}

	r = open()
	if got := run(r, "fig5.15"); got != want {
		t.Fatalf("fig5.15 replayed from the segment log differs:\n%s\nwant:\n%s", got, want)
	}
	st, _ := r.Eng.StateStats()
	if b := r.Eng.Stats().Builds; b != 0 || st.Appends != 0 || st.SkippedRuns+st.SkippedTraces != 0 {
		t.Fatalf("fig5.15 rerun built %d runs and appended %d records (skipped %d runs, %d level-1 records), want none",
			b, st.Appends, st.SkippedRuns, st.SkippedTraces)
	}
}
