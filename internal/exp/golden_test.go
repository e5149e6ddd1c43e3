//go:build !race

// The goldens run real simulations and platform emulations (tens of
// seconds in total); the race detector would multiply that several-fold,
// so the -race suite covers the batch paths with stub builders instead
// (TestPlatformRunAll).

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
