// Benchmarks: one per table and figure of the paper. Each benchmark
// regenerates its artifact through the experiment driver in quick mode,
// so `go test -bench=.` exercises the entire reproduction pipeline and
// reports how long each artifact takes to rebuild. Run
// `cmd/memtherm -run all` to regenerate every artifact at full scale.
package dramtherm

import (
	"sync"
	"testing"

	"dramtherm/internal/exp"
)

// benchRunner is shared across benchmarks so level-1 traces and level-2
// runs are reused the same way `memtherm -run all` reuses them.
var (
	benchOnce   sync.Once
	benchRunner *exp.Runner
)

func runner() *exp.Runner {
	benchOnce.Do(func() { benchRunner = exp.NewRunnerParallel(true, 0) })
	return benchRunner
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	d, err := exp.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	r := runner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Run(r)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 && len(res.Figures) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

func BenchmarkTable3_1(b *testing.B) { benchExperiment(b, "table3.1") }
func BenchmarkTable3_2(b *testing.B) { benchExperiment(b, "table3.2") }
func BenchmarkTable3_3(b *testing.B) { benchExperiment(b, "table3.3") }
func BenchmarkTable4_1(b *testing.B) { benchExperiment(b, "table4.1") }
func BenchmarkTable4_3(b *testing.B) { benchExperiment(b, "table4.3") }
func BenchmarkTable4_4(b *testing.B) { benchExperiment(b, "table4.4") }
func BenchmarkTable5_1(b *testing.B) { benchExperiment(b, "table5.1") }

func BenchmarkFig4_2(b *testing.B)  { benchExperiment(b, "fig4.2") }
func BenchmarkFig4_3(b *testing.B)  { benchExperiment(b, "fig4.3") }
func BenchmarkFig4_4(b *testing.B)  { benchExperiment(b, "fig4.4") }
func BenchmarkFig4_5(b *testing.B)  { benchExperiment(b, "fig4.5") }
func BenchmarkFig4_6(b *testing.B)  { benchExperiment(b, "fig4.6") }
func BenchmarkFig4_7(b *testing.B)  { benchExperiment(b, "fig4.7") }
func BenchmarkFig4_8(b *testing.B)  { benchExperiment(b, "fig4.8") }
func BenchmarkFig4_9(b *testing.B)  { benchExperiment(b, "fig4.9") }
func BenchmarkFig4_10(b *testing.B) { benchExperiment(b, "fig4.10") }
func BenchmarkFig4_11(b *testing.B) { benchExperiment(b, "fig4.11") }
func BenchmarkFig4_12(b *testing.B) { benchExperiment(b, "fig4.12") }
func BenchmarkFig4_13(b *testing.B) { benchExperiment(b, "fig4.13") }
func BenchmarkFig4_14(b *testing.B) { benchExperiment(b, "fig4.14") }

func BenchmarkFig5_4(b *testing.B)  { benchExperiment(b, "fig5.4") }
func BenchmarkFig5_5(b *testing.B)  { benchExperiment(b, "fig5.5") }
func BenchmarkFig5_6(b *testing.B)  { benchExperiment(b, "fig5.6") }
func BenchmarkFig5_7(b *testing.B)  { benchExperiment(b, "fig5.7") }
func BenchmarkFig5_8(b *testing.B)  { benchExperiment(b, "fig5.8") }
func BenchmarkFig5_9(b *testing.B)  { benchExperiment(b, "fig5.9") }
func BenchmarkFig5_10(b *testing.B) { benchExperiment(b, "fig5.10") }
func BenchmarkFig5_11(b *testing.B) { benchExperiment(b, "fig5.11") }
func BenchmarkFig5_12(b *testing.B) { benchExperiment(b, "fig5.12") }
func BenchmarkFig5_13(b *testing.B) { benchExperiment(b, "fig5.13") }
func BenchmarkFig5_14(b *testing.B) { benchExperiment(b, "fig5.14") }
func BenchmarkFig5_15(b *testing.B) { benchExperiment(b, "fig5.15") }
