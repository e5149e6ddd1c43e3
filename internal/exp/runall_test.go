package exp

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/platform"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// stubL1 is a level-1 builder that returns fixed non-zero rates after a
// short sleep and records how many builds were ever in flight at once.
type stubL1 struct {
	cur, peak atomic.Int64
}

func (s *stubL1) Build(dp trace.DesignPoint) (trace.Rates, error) {
	n := s.cur.Add(1)
	defer s.cur.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	time.Sleep(10 * time.Millisecond)
	r := trace.Rates{Point: dp, PerApp: map[string]trace.AppRates{}}
	for _, dom := range strings.Split(dp.Apps, "/") {
		for _, a := range strings.Split(dom, "|") {
			if a != "" {
				r.PerApp[a] = trace.AppRates{
					InstrPerSec: 1e10 * dp.FreqGHz, IPCRef: 1, ReadGBps: 1.5,
					WriteGBps: 0.5, L2MissPerSec: 2e7, MemBoundFrac: 0.3,
				}
			}
		}
	}
	return r, nil
}

// stubRunner is a quick-mode runner of the given width whose two
// machines build level-1 records with one shared stub.
func stubRunner(workers int) (*Runner, *stubL1) {
	r := NewRunnerParallel(true, workers)
	l1 := &stubL1{}
	r.peStore = trace.NewStore(l1)
	r.srStore = trace.NewStore(l1)
	return r, l1
}

// runAllBatch is a batch over both machines, planned policy-major so
// neighbouring configs run different programs and start with distinct
// level-1 builds.
func runAllBatch(r *Runner, progs []*workload.Profile) []platform.RunConfig {
	var cfgs []platform.RunConfig
	for _, k := range []platform.PolicyKind{platform.NoLimit, platform.ACG} {
		for i, p := range progs {
			m := r.pe
			if i%2 == 1 {
				m = r.sr
			}
			cfgs = append(cfgs, platform.RunConfig{Machine: m, Policy: k, Mix: homogeneous(p.Name), InstrScale: 0.2})
		}
	}
	return cfgs
}

// TestPlatformRunAll checks the batch entry point against one-at-a-time
// runs: input order, memo deduplication, the runner-wide bound on
// concurrent emulations and first-error-in-input-order.
func TestPlatformRunAll(t *testing.T) {
	progs := workload.Suite2000()[:6]
	ref, _ := stubRunner(1)
	cfgs := runAllBatch(ref, progs)
	want := make([]platform.RunResult, len(cfgs))
	for i, c := range cfgs {
		res, err := ref.pfRun(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, w := range []int{1, 2} {
		r, l1 := stubRunner(w)
		// Append duplicates: one verbatim, one that only spells out a
		// default. Neither may run again.
		dup := cfgs[3]
		dup.QuantumS = 0.1
		batch := append(append([]platform.RunConfig(nil), cfgs...), cfgs[0], dup)
		got, err := r.pfRunAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[:len(cfgs)], want) {
			t.Fatalf("width %d: batch results differ from one-at-a-time runs in input order", w)
		}
		if !reflect.DeepEqual(got[len(cfgs)], want[0]) || !reflect.DeepEqual(got[len(cfgs)+1], want[3]) {
			t.Fatalf("width %d: duplicate configs got different results", w)
		}
		if b := r.pfRuns.Stats().Builds; b != int64(len(cfgs)) {
			t.Fatalf("width %d: %d runs built for %d distinct configs", w, b, len(cfgs))
		}
		if p := l1.peak.Load(); p > int64(w) {
			t.Fatalf("width %d: %d level-1 builds in flight", w, p)
		}
	}

	// Two batches at once on one runner still share its worker slots.
	r, l1 := stubRunner(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, ps := range [][]*workload.Profile{progs[:3], progs[3:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.pfRunAll(runAllBatch(r, ps))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p := l1.peak.Load(); p != 2 {
		t.Fatalf("two concurrent batches on a width-2 runner peaked at %d level-1 builds, want 2", p)
	}

	// The error is the first one in input order.
	bogus := func(name string) platform.RunConfig {
		return platform.RunConfig{Machine: r.pe, Policy: platform.NoLimit,
			Mix: workload.Mix{Name: name, Apps: []string{"no-such-program"}}}
	}
	bad := []platform.RunConfig{cfgs[0], cfgs[1], bogus("bogus-a"), bogus("bogus-b")}
	if _, err := r.pfRunAll(bad); err == nil || !strings.Contains(err.Error(), "bogus-a") {
		t.Fatalf("batch error = %v, want the bogus-a failure", err)
	}
}

// TestPfKeyCanonical checks that the platform-run memo keys the config a
// run actually sees: defaults spelled out explicitly share a key, and
// every field the run reads separates keys.
func TestPfKeyCanonical(t *testing.T) {
	r, _ := stubRunner(1)
	w1, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	base := platform.RunConfig{Machine: r.pe, Policy: platform.ACG, Mix: w1}
	explicit := base
	explicit.RunsPerApp = 1 // quick mode
	explicit.SensorSeed = 7
	explicit.QuantumS = 0.1
	explicit.IntervalS = 1
	explicit.InstrScale = 1
	explicit.ForceFreqIdx = -1
	explicit.MaxSeconds = 100000
	if r.pfKey(base) != r.pfKey(explicit) {
		t.Fatalf("explicit defaults give a different key:\n%+v\n%+v", r.pfKey(base), r.pfKey(explicit))
	}

	keys := map[pfKey]string{r.pfKey(base): "base"}
	for name, mod := range map[string]func(*platform.RunConfig){
		"MaxSeconds": func(c *platform.RunConfig) { c.MaxSeconds = 5000 },
		"IntervalS":  func(c *platform.RunConfig) { c.IntervalS = 0.5 },
		"InstrScale": func(c *platform.RunConfig) { c.InstrScale = 0.5 },
		"QuantumS":   func(c *platform.RunConfig) { c.QuantumS = 0.02 },
		"Machine":    func(c *platform.RunConfig) { c.Machine = r.sr },
		"Apps":       func(c *platform.RunConfig) { c.Mix.Apps = []string{"swim", "swim", "swim", "swim"} },
	} {
		c := base
		mod(&c)
		k := r.pfKey(c)
		if other, dup := keys[k]; dup {
			t.Errorf("configs differing in %s share a key with %s", name, other)
		}
		keys[k] = name
	}

	// fig5.15's 100 ms-quantum runs are fig5.6's PE1950 DTM-ACG runs.
	for _, id := range []string{"fig5.6", "fig5.15"} {
		d, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		before := r.pfRuns.Stats().Hits
		if _, err := d.Run(r); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if hits := r.pfRuns.Stats().Hits - before; id == "fig5.15" && hits < 2 {
			t.Fatalf("fig5.15 after fig5.6 scored %d platform-run hits, want >= 2", hits)
		}
	}
}
