package sweep

import (
	"context"
	"sync/atomic"
	"testing"

	"dramtherm/internal/obs"
)

// BenchmarkObsOverhead measures what instrumentation costs the hot path:
// the same cached sweep served by an uninstrumented engine (nil-receiver
// no-op instruments) and by one registered on a live registry. The two
// sub-benchmarks must stay within a few percent of each other — the
// whole design leans on nil-check no-ops being free enough to leave the
// hooks compiled into every path.
func BenchmarkObsOverhead(b *testing.B) {
	bench := func(b *testing.B, instrument bool) {
		var builds atomic.Int64
		eng := testEngine(4, &builds, 0)
		if instrument {
			eng.Instrument(obs.NewRegistry())
		}
		ctx := context.Background()
		spec := Spec{Mix: "W1", Policy: "DTM-ACG"}
		if _, _, err := eng.Run(ctx, spec); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Run(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("noop", func(b *testing.B) { bench(b, false) })
	b.Run("instrumented", func(b *testing.B) { bench(b, true) })
}
