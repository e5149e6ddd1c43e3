// Package trace defines the interface between the two levels of the
// thermal simulator (§4.3.1, Fig. 4.1): the level-1 architectural
// simulator produces Rates records — steady-state performance and
// throughput for one combination of running applications under one DTM
// design point — and the level-2 simulator (MEMSpot) consumes them in
// 10 ms windows. A Store memoizes records on a memo.Table — one level-1
// build per design point, however many level-2 runs ask for it. The
// sweep engine's segment log persists them, mirroring the paper's
// precomputed trace sets Wi×D.
package trace

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"dramtherm/internal/memo"
)

// DesignPoint is one point of the explored design space D: which
// applications are running (canonicalized), the core frequency, the
// memory bandwidth cap, and whether the memory is fully shut down.
type DesignPoint struct {
	// Apps is the canonical combination key: running application names,
	// sorted, joined with "|". Empty means no application is running.
	Apps string
	// FreqGHz is the core clock of all active cores.
	FreqGHz float64
	// BWCapGBps is the memory bandwidth cap; +Inf means uncapped.
	BWCapGBps float64
	// MemOff marks the fully-stopped memory state (DTM-TS / level L5).
	MemOff bool
}

// CanonApps builds the canonical Apps key from a set of running
// application names (empty strings are dropped).
func CanonApps(names []string) string {
	apps := make([]string, 0, len(names))
	for _, n := range names {
		if n != "" {
			apps = append(apps, n)
		}
	}
	sort.Strings(apps)
	return strings.Join(apps, "|")
}

// AppNames splits the canonical key back into names.
func (d DesignPoint) AppNames() []string {
	if d.Apps == "" {
		return nil
	}
	return strings.Split(d.Apps, "|")
}

// String renders the design point compactly.
func (d DesignPoint) String() string {
	cap := "inf"
	if !math.IsInf(d.BWCapGBps, 1) {
		cap = fmt.Sprintf("%.1f", d.BWCapGBps)
	}
	return fmt.Sprintf("{%s f=%.3g cap=%s off=%v}", d.Apps, d.FreqGHz, cap, d.MemOff)
}

// AppRates is the measured steady-state behaviour of one application
// instance within a combination. When the same name appears k times in a
// combination, the record is the per-instance average.
type AppRates struct {
	// InstrPerSec is the committed instruction rate.
	InstrPerSec float64
	// IPCRef is instructions per reference cycle (cycle at maximum
	// frequency), the quantity Eq. 3.6 uses.
	IPCRef float64
	// ReadGBps is demand+speculative read traffic attributable to the
	// instance; WriteGBps is its writeback traffic.
	ReadGBps  float64
	WriteGBps float64
	// L2MissPerSec and L2AccessPerSec describe last-level cache activity.
	L2MissPerSec   float64
	L2AccessPerSec float64
	// MemBoundFrac is the fraction of core cycles stalled on memory; the
	// level-2 simulator uses it to adjust instruction rates under phase
	// multipliers.
	MemBoundFrac float64
}

// Rates is the full level-1 record for one design point.
type Rates struct {
	Point DesignPoint
	// PerApp maps application name → per-instance rates.
	PerApp map[string]AppRates
	// Totals across all instances.
	TotalReadGBps  float64
	TotalWriteGBps float64
	MeanLatencyNS  float64
}

// TotalGBps returns read+write throughput.
func (r Rates) TotalGBps() float64 { return r.TotalReadGBps + r.TotalWriteGBps }

// Zero returns an all-idle record for the design point (used for MemOff
// and no-apps points without running the simulator).
func Zero(dp DesignPoint) Rates {
	pa := make(map[string]AppRates)
	for _, n := range dp.AppNames() {
		pa[n] = AppRates{}
	}
	return Rates{Point: dp, PerApp: pa}
}

// Builder computes a Rates record for a design point; the level-1
// simulator provides one.
type Builder interface {
	Build(dp DesignPoint) (Rates, error)
}

// BuilderFunc adapts a function to Builder.
type BuilderFunc func(dp DesignPoint) (Rates, error)

// Build implements Builder.
func (f BuilderFunc) Build(dp DesignPoint) (Rates, error) { return f(dp) }

// Store memoizes Rates by design point on a memo.Table. It is safe for
// concurrent use: simultaneous Gets for the same unbuilt point share a
// single build, while distinct points build in parallel.
type Store struct {
	builder Builder
	recs    *memo.Table[DesignPoint, Rates]
}

// NewStore returns a store backed by b (may be nil for a read-only store
// filled via Put).
func NewStore(b Builder) *Store {
	return &Store{builder: b, recs: memo.New[DesignPoint, Rates](0)}
}

// Get returns the record for dp, building and memoizing it on first use.
// MemOff or empty-combination points short-circuit to Zero.
func (s *Store) Get(dp DesignPoint) (Rates, error) {
	if dp.MemOff || dp.Apps == "" || dp.FreqGHz <= 0 {
		return Zero(dp), nil
	}
	r, _, err := s.recs.Do(context.TODO(), dp, func(context.Context) (Rates, error) {
		if s.builder == nil {
			return Rates{}, fmt.Errorf("trace: no record for %v and no builder", dp)
		}
		r, err := s.builder.Build(dp)
		if err != nil {
			return Rates{}, fmt.Errorf("trace: building %v: %w", dp, err)
		}
		return r, nil
	})
	return r, err
}

// SetOnBuild registers fn to run after every successful level-1 build —
// freshly simulated records, not entries restored via Put (so
// replaying a persisted log does not re-persist every record). fn runs
// outside the store lock on the builder's goroutine. Call before the
// store is in use; not synchronized with concurrent Get.
func (s *Store) SetOnBuild(fn func(Rates)) {
	s.recs.OnInsert(func(_ DesignPoint, r Rates) { fn(r) })
}

// Range calls fn for every memoized record until fn returns false. The
// record set is snapshotted under the lock, so fn itself runs lock-free.
func (s *Store) Range(fn func(Rates) bool) {
	s.recs.Range(func(_ DesignPoint, r Rates) bool { return fn(r) })
}

// Put inserts a record directly (used by tests and log replay).
func (s *Store) Put(r Rates) { s.recs.Put(r.Point, r) }

// Len returns the number of memoized records.
func (s *Store) Len() int { return s.recs.Len() }

// Counts returns how many level-1 builds ran vs. how many lookups were
// served from memo.
func (s *Store) Counts() (builds, hits int) {
	st := s.recs.Stats()
	return int(st.Builds), int(st.Hits)
}
