package sweep

import (
	"testing"

	"dramtherm/internal/core"
)

// TestCacheDefaultWorkers checks the worker pool's GOMAXPROCS fallback.
func TestCacheDefaultWorkers(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	if NewEngine(sys, 0).Workers() < 1 {
		t.Fatal("no workers")
	}
	if w := NewEngine(sys, 3).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
}
