package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
)

// pinWindowNS is the short warm-up and measurement window of the pinned
// builds: long enough to exercise the whole level-1 machine, short
// enough to keep the test fast.
const pinWindowNS = 2e5

// ratesDigest hashes every float of the records, bit for bit, with the
// application names in sorted order.
func ratesDigest(recs []trace.Rates) string {
	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, r := range recs {
		h.Write([]byte(r.Point.String()))
		names := make([]string, 0, len(r.PerApp))
		for n := range r.PerApp {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			a := r.PerApp[n]
			h.Write([]byte(n))
			for _, f := range []float64{a.InstrPerSec, a.IPCRef, a.ReadGBps, a.WriteGBps,
				a.L2MissPerSec, a.L2AccessPerSec, a.MemBoundFrac} {
				put(f)
			}
		}
		put(r.TotalReadGBps)
		put(r.TotalWriteGBps)
		put(r.MeanLatencyNS)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLevel1Pinned pins the rate records of the Chapter 4 and both
// Chapter 5 level-1 builders on a fixed set of design points: the
// Chapter 4 key form, two-domain keys, keys with an empty domain, caps
// below and above the FSB ceiling, uncapped points and idle points.
func TestLevel1Pinned(t *testing.T) {
	inf := math.Inf(1)
	ch4 := []trace.DesignPoint{
		{Apps: "applu|galgel|mgrid|swim", FreqGHz: 3.2, BWCapGBps: inf},
		{Apps: "applu|galgel|mgrid|swim", FreqGHz: 1.6, BWCapGBps: 6.4},
		{Apps: "swim|swim", FreqGHz: 2.4, BWCapGBps: 12},
		{Apps: "mcf|vpr", FreqGHz: 3.2, BWCapGBps: 3.2},
		{Apps: "applu|galgel|mgrid|swim", FreqGHz: 3.2, BWCapGBps: inf, MemOff: true},
		{Apps: "", FreqGHz: 3.2, BWCapGBps: inf},
	}
	ch5 := []trace.DesignPoint{
		{Apps: "mgrid|swim/applu|galgel", FreqGHz: 3.0, BWCapGBps: inf},
		{Apps: "mgrid|swim/applu|galgel", FreqGHz: 2.0, BWCapGBps: 12},
		{Apps: "mgrid|swim/applu|galgel", FreqGHz: 3.0, BWCapGBps: 4},
		{Apps: "swim|swim/swim|swim", FreqGHz: 2.667, BWCapGBps: inf},
		{Apps: "/mgrid|swim", FreqGHz: 3.0, BWCapGBps: inf},
		{Apps: "mgrid|swim/", FreqGHz: 3.0, BWCapGBps: 10},
		{Apps: "mcf/vpr", FreqGHz: 2.333, BWCapGBps: 3},
		{Apps: "applu|galgel|mgrid|swim", FreqGHz: 3.0, BWCapGBps: inf},
		{Apps: "mgrid|swim/applu|galgel", FreqGHz: 3.0, BWCapGBps: inf, MemOff: true},
		{Apps: "/", FreqGHz: 3.0, BWCapGBps: inf},
	}

	c4 := sim.NewLevel1(1)
	c4.WarmupNS, c4.MeasureNS = pinWindowNS, pinWindowNS
	pe := NewLevel1(PE1950(), 1)
	pe.WarmupNS, pe.MeasureNS = pinWindowNS, pinWindowNS
	sr := NewLevel1(SR1500AL(), 1)
	sr.WarmupNS, sr.MeasureNS = pinWindowNS, pinWindowNS

	for _, tc := range []struct {
		name   string
		b      trace.Builder
		points []trace.DesignPoint
		want   string
	}{
		{"chapter4", c4, ch4, "8e78206f9233eca9279a6eeaea7f1a7a4fdbf54ce55d4ea603149ebb180c6f51"},
		{"PE1950", pe, ch5, "1bb27aca378b4eebd668028329b77378ee2f62159cc4ce84ed5b5956eea4f46b"},
		{"SR1500AL", sr, ch5, "f23ff8a15f9f9c2abf5cb739519ef5539dfee904e0df8fc81fb5dd98db42154d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			recs := make([]trace.Rates, len(tc.points))
			for i, dp := range tc.points {
				r, err := tc.b.Build(dp)
				if err != nil {
					t.Fatalf("%v: %v", dp, err)
				}
				recs[i] = r
			}
			if got := ratesDigest(recs); got != tc.want {
				t.Fatalf("level-1 digest = %s, pinned %s", got, tc.want)
			}
		})
	}
}
