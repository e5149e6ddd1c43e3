// Command tracegen runs the level-1 architectural simulator for a set of
// design points and appends the resulting rate records (the Wi×D trace
// set of §4.3.1) to a segment-log directory that cmd/memspot,
// cmd/dramthermd -segment-dir and dramtherm.WithStateDir replay. Points
// already in the directory are not rebuilt.
//
// Usage:
//
//	tracegen -mix W1 -segment-dir w1.d
//	tracegen -mix W1 -freqs 3.2,2.4,1.6,0.8 -caps 19.2,12.8,6.4 -segment-dir w1.d
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"dramtherm/internal/core"
	"dramtherm/internal/sweep"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		mixName = flag.String("mix", "W1", "workload mix (W1..W8, W11, W12)")
		freqs   = flag.String("freqs", "3.2,2.4,1.6,0.8", "core frequencies (GHz)")
		caps    = flag.String("caps", "19.2,12.8,6.4", "bandwidth caps (GB/s); uncapped always included")
		seed    = flag.Int64("seed", 1, "stream seed")
		segDir  = flag.String("segment-dir", "", "segment-log directory to append the records to (required)")
	)
	flag.Parse()
	if *segDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	mix, err := workload.MixByName(*mixName)
	fail(err)
	fs, err := parseFloats(*freqs)
	fail(err)
	cs, err := parseFloats(*caps)
	fail(err)
	cs = append(cs, math.Inf(1))

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	eng := sweep.NewEngine(core.NewSystem(cfg), 0)
	// Every freshly built record is appended to the log as it completes.
	fail(eng.EnableSegmentLog(*segDir, 0))
	store := eng.System().Store()
	apps := trace.CanonApps(mix.Apps)
	n := 0
	for _, f := range fs {
		for _, c := range cs {
			dp := trace.DesignPoint{Apps: apps, FreqGHz: f, BWCapGBps: c}
			r, err := store.Get(dp)
			fail(err)
			fmt.Printf("%v: %.2f GB/s, latency %.0f ns\n", dp, r.TotalGBps(), r.MeanLatencyNS)
			n++
		}
	}
	// Core-gated subsets at top frequency (the DTM-ACG design points).
	for size := 1; size < len(mix.Apps); size++ {
		for start := 0; start < len(mix.Apps); start++ {
			var names []string
			for k := 0; k < size; k++ {
				names = append(names, mix.Apps[(start+k)%len(mix.Apps)])
			}
			dp := trace.DesignPoint{Apps: trace.CanonApps(names), FreqGHz: fs[0], BWCapGBps: math.Inf(1)}
			r, err := store.Get(dp)
			fail(err)
			fmt.Printf("%v: %.2f GB/s\n", dp, r.TotalGBps())
			n++
		}
	}

	if st, _ := eng.StateStats(); st.AppendErrors > 0 {
		fail(fmt.Errorf("%d records were not appended to %s", st.AppendErrors, *segDir))
	}
	fail(eng.Close())
	builds, _ := store.Counts()
	fmt.Printf("%d design points, %d built; %s holds %d level-1 records\n", n, builds, *segDir, store.Len())
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
