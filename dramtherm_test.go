package dramtherm

import (
	"context"
	"testing"
)

// TestFacade exercises the public API end-to-end at a tiny scale: the
// exact code path the README quickstart shows, plus a sweep observed
// through OnEvent.
func TestFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 1
	cfg.InstrScale = 0.01
	eng, err := NewEngine(cfg, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	mix, err := MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix.Apps) != 4 {
		t.Fatalf("W1 = %v", mix.Apps)
	}
	spec := Spec{Mix: mix.Name, Policy: "DTM-ACG", Cooling: "AOHS_1.5", Model: "isolated"}
	res, info, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Completed != 4 || info.Outcome != Built {
		t.Fatalf("facade run broken: %+v (%+v)", res, info)
	}

	var finished []Event
	specs := []Spec{spec, {Mix: mix.Name}}
	sw, err := eng.Sweep(context.Background(), specs, SweepOptions{
		OnEvent: func(ev Event) {
			if ev.Kind != EventStarted {
				finished = append(finished, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Results[0].Seconds != res.Seconds {
		t.Fatalf("sweep result %v differs from the cached run %v", sw.Results[0].Seconds, res.Seconds)
	}
	if len(finished) != 2 {
		t.Fatalf("%d finish events, want 2", len(finished))
	}
	for i, ev := range finished {
		if ev.Kind != EventFinished || ev.Done != i+1 || ev.Total != 2 {
			t.Fatalf("finish event %d: %+v", i, ev)
		}
		want := Built // the No-limit spec is new; spec 0 was cached by Run
		if ev.Index == 0 {
			want = Hit
		}
		if ev.Outcome != want {
			t.Fatalf("spec %d served %v, want %v", ev.Index, ev.Outcome, want)
		}
	}
}

// TestFacadeEngine sweeps a tiny grid through the public engine with
// durable state, then rebuilds the engine from the same directory and
// checks the cache is warm — the whole quickstart workflow, without a
// single internal import in user code.
func TestFacadeEngine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 1
	cfg.InstrScale = 0.01
	dir := t.TempDir()

	eng, err := NewEngine(cfg, WithWorkers(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	specs := Grid{Mixes: []string{"W1"}, Policies: []string{"No-limit", "DTM-TS"}}.Expand()
	res, err := eng.Sweep(context.Background(), specs, SweepOptions{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 || res.Results[0].Seconds <= 0 || res.Norms[1] <= 0 {
		t.Fatalf("sweep results broken: %+v", res)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := NewEngine(cfg, WithWorkers(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got := warm.Stats().Entries; got != 2 {
		t.Fatalf("warm engine replayed %d cached runs, want 2", got)
	}
	if _, err := warm.Sweep(context.Background(), specs, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if b := warm.Stats().Builds; b != 0 {
		t.Fatalf("warm sweep rebuilt %d specs, want 0", b)
	}
}

func TestFacadeCatalog(t *testing.T) {
	if len(Mixes()) != 10 {
		t.Fatalf("mixes = %d", len(Mixes()))
	}
	if len(PolicyNames()) != 9 {
		t.Fatalf("policies = %d", len(PolicyNames()))
	}
	if _, err := MixByName("W0"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}
