package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"dramtherm/internal/exp"
	"dramtherm/internal/sim"
)

// goldenDigests pins every simulated statistic of each workload at the
// default seed and full fidelity, as produced at the commit that added
// the benchmark. A mismatch is a failed output check: the simulator's
// answers changed.
var goldenDigests = map[string]string{
	"cold-sweep":  "57b579195511c5248259660c",
	"warm-grid":   "d1e25dbbd9f871063e627ece",
	"serve-exec":  "d1e25dbbd9f871063e627ece",
	"ch5-fig5.15": "4cebf0a5f456c13197409009",
}

// checkGolden compares a workload's digest with the recorded one, when
// the run is at the recorded seed and fidelity.
func (b *bench) checkGolden(seed int64, digest string) {
	if seed != defaultSeed || b.opts.scale != 1 {
		return
	}
	want := goldenDigests[b.opts.workload]
	b.check(digest == want, "%s digest %s at seed %d, recorded %s", b.opts.workload, digest, seed, want)
}

type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) u(x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	d.h.Write(buf[:])
}

func (d *digester) f(x float64) { d.u(math.Float64bits(x)) }
func (d *digester) i(x int64)   { d.u(uint64(x)) }

func (d *digester) s(x string) {
	d.i(int64(len(x)))
	d.h.Write([]byte(x))
}

func (d *digester) fs(xs []float64) {
	d.i(int64(len(xs)))
	for _, x := range xs {
		d.f(x)
	}
}

func (d *digester) m(xs map[int]float64) {
	keys := make([]int, 0, len(xs))
	for k := range xs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	d.i(int64(len(keys)))
	for _, k := range keys {
		d.i(int64(k))
		d.f(xs[k])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// result adds every statistic of one level-2 run. The fields are listed
// explicitly, so a statistic added to the result later does not change
// the digest of the ones pinned here.
func (d *digester) result(r sim.MEMSpotResult) {
	d.f(r.Seconds)
	if r.TimedOut {
		d.i(1)
	} else {
		d.i(0)
	}
	d.i(int64(r.Completed))
	d.f(r.ReadGB)
	d.f(r.WriteGB)
	d.f(r.L2Misses)
	d.f(r.L2Accesses)
	d.f(r.MemEnergyJ)
	d.f(r.CPUEnergyJ)
	d.f(r.MaxAMB)
	d.f(r.MaxDRAM)
	d.i(int64(r.Overshoots))
	d.fs(r.AMBTrace)
	d.fs(r.DRAMTrace)
	d.fs(r.AmbientTrace)
	d.m(r.TimeAtCores)
	d.m(r.TimeAtFreq)
	d.f(r.TimeMemOff)
}

func resultDigest(r sim.MEMSpotResult) string {
	d := newDigester()
	d.result(r)
	return d.sum()
}

func resultsDigest(rs []sim.MEMSpotResult) string {
	d := newDigester()
	for _, r := range rs {
		d.result(r)
	}
	return d.sum()
}

// expDigest covers every series and table cell of an experiment.
func expDigest(res exp.Result) string {
	d := newDigester()
	for _, t := range res.Tables {
		for _, row := range t.Rows {
			for _, c := range row {
				d.s(c)
			}
		}
	}
	for _, f := range res.Figures {
		for _, s := range f.Series {
			d.s(s.Name)
			d.fs(s.X)
			d.fs(s.Y)
		}
	}
	return d.sum()
}
