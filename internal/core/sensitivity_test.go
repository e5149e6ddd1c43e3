//go:build !race

// The full-length W1 simulations here take about 28 s; the race
// detector multiplies that more than tenfold (324 s on a 2-CPU host),
// so, like the exp goldens, they run in the plain test suite only.

package core

import (
	"math"
	"testing"

	"dramtherm/internal/workload"
)

// TestBatchDepthSensitivity checks that the normalized runtime is
// insensitive to the batch depth: the paper uses 50 replicas per
// application, the full-scale experiment runs use 4, and the ratio must
// agree because any batch longer than a few thermal time constants
// samples the same duty-cycle equilibrium.
func TestBatchDepthSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep skipped in -short mode")
	}
	mix, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	norm := func(replicas int) float64 {
		cfg := DefaultConfig()
		cfg.Replicas = replicas
		return normalizedRuntime(t, NewSystem(cfg), mix, "DTM-TS")
	}
	n2, n6 := norm(2), norm(6)
	if n2 <= 1 || n6 <= 1 {
		t.Fatalf("thermal limit not binding: %v / %v", n2, n6)
	}
	if rel := math.Abs(n2-n6) / n6; rel > 0.06 {
		t.Fatalf("normalized runtime moved %.1f%% between 2 and 6 replicas (%v vs %v)",
			rel*100, n2, n6)
	}
}
