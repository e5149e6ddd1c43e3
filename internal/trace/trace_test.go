package trace

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCanonApps(t *testing.T) {
	if got := CanonApps([]string{"b", "a", "", "c"}); got != "a|b|c" {
		t.Fatalf("CanonApps = %q", got)
	}
	if got := CanonApps(nil); got != "" {
		t.Fatalf("CanonApps(nil) = %q", got)
	}
	// Multiplicity is preserved.
	if got := CanonApps([]string{"a", "a"}); got != "a|a" {
		t.Fatalf("duplicates = %q", got)
	}
}

// Property: CanonApps is order-insensitive and idempotent through
// AppNames.
func TestCanonRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		names := make([]string, len(raw))
		for i, v := range raw {
			names[i] = fmt.Sprintf("app%d", v%5)
		}
		key := CanonApps(names)
		dp := DesignPoint{Apps: key}
		return CanonApps(dp.AppNames()) == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZero(t *testing.T) {
	dp := DesignPoint{Apps: "a|b", MemOff: true}
	z := Zero(dp)
	if len(z.PerApp) != 2 {
		t.Fatalf("Zero PerApp = %v", z.PerApp)
	}
	if z.TotalGBps() != 0 {
		t.Fatal("Zero has traffic")
	}
}

func TestDesignPointString(t *testing.T) {
	dp := DesignPoint{Apps: "a", FreqGHz: 3.2, BWCapGBps: math.Inf(1)}
	if s := dp.String(); s == "" {
		t.Fatal("empty string")
	}
	capped := DesignPoint{Apps: "a", FreqGHz: 3.2, BWCapGBps: 6.4}
	if capped.String() == dp.String() {
		t.Fatal("cap not rendered")
	}
}

type countingBuilder struct {
	mu sync.Mutex
	n  int
}

func (b *countingBuilder) Build(dp DesignPoint) (Rates, error) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	r := Zero(dp)
	r.TotalReadGBps = 1
	return r, nil
}

func TestStoreMemoization(t *testing.T) {
	b := &countingBuilder{}
	s := NewStore(b)
	dp := DesignPoint{Apps: "swim", FreqGHz: 3.2, BWCapGBps: math.Inf(1)}
	for i := 0; i < 5; i++ {
		if _, err := s.Get(dp); err != nil {
			t.Fatal(err)
		}
	}
	if b.n != 1 {
		t.Fatalf("builder called %d times", b.n)
	}
	builds, hits := s.Counts()
	if builds != 1 || hits != 4 {
		t.Fatalf("counts = %d/%d", builds, hits)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStoreShortCircuits(t *testing.T) {
	b := &countingBuilder{}
	s := NewStore(b)
	for _, dp := range []DesignPoint{
		{Apps: "swim", MemOff: true, FreqGHz: 3.2},
		{Apps: "", FreqGHz: 3.2},
		{Apps: "swim", FreqGHz: 0},
	} {
		r, err := s.Get(dp)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalGBps() != 0 {
			t.Fatalf("%v produced traffic", dp)
		}
	}
	if b.n != 0 {
		t.Fatal("short-circuit points invoked the builder")
	}
}

func TestStoreNoBuilder(t *testing.T) {
	s := NewStore(nil)
	if _, err := s.Get(DesignPoint{Apps: "swim", FreqGHz: 3.2}); err == nil {
		t.Fatal("missing builder not reported")
	}
	// Put makes the record available without a builder.
	r := Zero(DesignPoint{Apps: "swim", FreqGHz: 3.2})
	s.Put(r)
	if _, err := s.Get(r.Point); err != nil {
		t.Fatalf("Put record not served: %v", err)
	}
}

type failingBuilder struct{}

func (failingBuilder) Build(DesignPoint) (Rates, error) {
	return Rates{}, errors.New("boom")
}

func TestStoreBuilderError(t *testing.T) {
	s := NewStore(failingBuilder{})
	if _, err := s.Get(DesignPoint{Apps: "swim", FreqGHz: 3.2}); err == nil {
		t.Fatal("builder error swallowed")
	}
}

// slowBuilder widens the race window so concurrent Gets for the same
// unbuilt point genuinely overlap.
type slowBuilder struct {
	countingBuilder
	gate chan struct{}
}

func (b *slowBuilder) Build(dp DesignPoint) (Rates, error) {
	<-b.gate
	return b.countingBuilder.Build(dp)
}

// TestStoreSingleflight checks simultaneous Gets for one unbuilt design
// point share a single level-1 build.
func TestStoreSingleflight(t *testing.T) {
	b := &slowBuilder{gate: make(chan struct{})}
	s := NewStore(b)
	dp := DesignPoint{Apps: "swim", FreqGHz: 3.2, BWCapGBps: math.Inf(1)}
	const waiters = 16
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Get(dp)
			if err != nil {
				t.Error(err)
			}
			if r.TotalReadGBps != 1 {
				t.Errorf("bad record: %+v", r)
			}
		}()
	}
	close(b.gate) // release all; only one goroutine is inside Build
	wg.Wait()
	if b.n != 1 {
		t.Fatalf("builder called %d times, want 1", b.n)
	}
}

func TestStoreConcurrent(t *testing.T) {
	b := &countingBuilder{}
	s := NewStore(b)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dp := DesignPoint{Apps: fmt.Sprintf("app%d", i%4), FreqGHz: 3.2}
			for j := 0; j < 100; j++ {
				if _, err := s.Get(dp); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
}
