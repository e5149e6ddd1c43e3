package prefix_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/sweep/prefix"
)

// fmtTraceDigest is the reference rendering of TraceDigest: fmt's "%+v"
// of every record, one per line, after the key. Persisted records carry
// digests made this way.
func fmtTraceDigest(key string, log []prefix.DecisionRecord) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", key)
	for i := range log {
		fmt.Fprintf(h, "%+v\n", log[i])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// randFloat draws the floats whose rendering is easy to get wrong:
// signed zeros, infinities, NaNs, subnormals, any bit pattern, and
// values around the exponents where shortest 'g' switches between
// decimal and exponent form, besides plausible temperatures and times.
func randFloat(r *rand.Rand) float64 {
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	switch r.Intn(7) {
	case 0:
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
			math.Float64frombits(1<<52 - 1), 1e-5, 1e-4, 1e20, 1e21, 1e6, 1e5, dtm.NoCap()}
		return specials[r.Intn(len(specials))]
	case 1:
		return math.Float64frombits(r.Uint64())
	case 2:
		return sign * math.Float64frombits(r.Uint64()&(1<<52-1)) // subnormal
	case 3:
		exps := []int{-7, -6, -5, -4, -3, 4, 5, 6, 7, 19, 20, 21, 22, 23}
		e := exps[r.Intn(len(exps))]
		if r.Intn(4) == 0 {
			return sign * math.Pow10(e)
		}
		return sign * (1 + 9*r.Float64()) * math.Pow10(e)
	case 4:
		return 40 + 80*r.Float64() // a temperature
	case 5:
		return float64(r.Intn(1_000_000)) * 0.01 // a decision time
	default:
		return sign * r.ExpFloat64() * math.Pow10(r.Intn(40)-20)
	}
}

func randInt(r *rand.Rand) int {
	if r.Intn(2) == 0 {
		return r.Intn(9) - 1 // core counts and DVFS indices
	}
	return int(r.Uint64())
}

// randRecords draws n random decision records.
func randRecords(r *rand.Rand, n int) []prefix.DecisionRecord {
	log := make([]prefix.DecisionRecord, n)
	for i := range log {
		log[i] = prefix.DecisionRecord{
			In: dtm.Input{AMB: randFloat(r), DRAM: randFloat(r), Now: randFloat(r), Dt: randFloat(r)},
			Act: dtm.Action{MemOff: r.Intn(2) == 0, BWCapGBps: randFloat(r),
				ActiveCores: randInt(r), FreqIndex: randInt(r)},
		}
	}
	return log
}

// TestTraceDigestMatchesFmt: TraceDigest renders every record exactly as
// fmt's "%+v" does, so digests of existing logs and persisted records
// keep validating.
func TestTraceDigestMatchesFmt(t *testing.T) {
	log := randRecords(rand.New(rand.NewSource(1)), 100_000)
	if got, want := prefix.TraceDigest("k", log), fmtTraceDigest("k", log); got != want {
		for i := range log {
			one := log[i : i+1]
			if prefix.TraceDigest("k", one) != fmtTraceDigest("k", one) {
				t.Fatalf("record %d renders differently from %%+v: %+v", i, log[i])
			}
		}
		t.Fatalf("digest %s, want %s", got, want)
	}
	for _, key := range []string{"", "seedcfg|W1|*||isolated", "odd\nkey\x00\xff%v"} {
		if got, want := prefix.TraceDigest(key, log[:100]), fmtTraceDigest(key, log[:100]); got != want {
			t.Fatalf("key %q: digest %s, want %s", key, got, want)
		}
	}
	if got, want := prefix.TraceDigest("k", nil), fmtTraceDigest("k", nil); got != want {
		t.Fatalf("empty log: digest %s, want %s", got, want)
	}
}

// BenchmarkTraceDigest digests a full-size decision log (maxDecisions
// records of plausible values).
func BenchmarkTraceDigest(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	log := make([]prefix.DecisionRecord, 1<<18)
	for i := range log {
		log[i] = prefix.DecisionRecord{
			In:  dtm.Input{AMB: 90 + 20*r.Float64(), DRAM: 70 + 15*r.Float64(), Now: float64(i) * 0.01, Dt: 0.01},
			Act: dtm.Action{BWCapGBps: dtm.NoCap(), ActiveCores: 4 - r.Intn(2)},
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		prefix.TraceDigest("seedcfg|W1|*||isolated", log)
	}
}
