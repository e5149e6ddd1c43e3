package sim

import (
	"context"
	"math"
	"sync"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// BenchmarkLevel1Build measures one level-1 design-point simulation (the
// unit of trace construction).
func BenchmarkLevel1Build(b *testing.B) {
	l1 := NewLevel1(1)
	l1.WarmupNS, l1.MeasureNS = 3e5, 3e5
	mix, err := workload.MixByName("W1")
	if err != nil {
		b.Fatal(err)
	}
	dp := trace.DesignPoint{Apps: trace.CanonApps(mix.Apps), FreqGHz: 3.2, BWCapGBps: math.Inf(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l1.Build(dp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMEMSpotSecond measures level-2 simulation speed in simulated
// seconds per wall second (100 windows of 10 ms per iteration).
func BenchmarkMEMSpotSecond(b *testing.B) {
	mix, err := workload.MixByName("W1")
	if err != nil {
		b.Fatal(err)
	}
	store := trace.NewStore(fastLevel1())
	cfg := MEMSpotConfig{
		Mix: mix, Replicas: 1000, Policy: dtm.NewACG(dtm.DefaultLevels(), 4),
		InstrScale: 1,
	}
	ms, err := NewMEMSpot(cfg, store)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < 100; w++ {
			if err := ms.step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMEMSpotRunShared measures whole level-2 runs in the shape of
// a sweep: two goroutines each run RunMixCtx to completion under one
// shared cancelable context, over a store warmed before the timer
// starts. Unlike BenchmarkMEMSpotSecond, which calls step directly, it
// includes RunHooked's per-window cancellation poll on the shared
// context. Reports wall ns per simulated window of one run.
func BenchmarkMEMSpotRunShared(b *testing.B) {
	mix, err := workload.MixByName("W1")
	if err != nil {
		b.Fatal(err)
	}
	store := trace.NewStore(fastLevel1())
	cfg := func() MEMSpotConfig {
		return MEMSpotConfig{
			Mix: mix, Replicas: 2, Policy: dtm.NewACG(dtm.DefaultLevels(), 4),
			InstrScale: 0.5,
		}
	}
	warm, err := NewMEMSpot(cfg(), store)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Run(); err != nil {
		b.Fatal(err)
	}
	windows := warm.StepsTaken()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[g] = RunMixCtx(ctx, cfg(), store)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*windows), "ns/window")
}
