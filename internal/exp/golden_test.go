//go:build !race

// The Chapter 5 goldens run real platform emulations (tens of seconds
// in total); the race detector would multiply that several-fold, so the
// -race suite covers the batch path with stub builders instead
// (TestPlatformRunAll).

package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.quick.golden from the current drivers")

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
