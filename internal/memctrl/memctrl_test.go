package memctrl

import (
	"math"
	"testing"
	"testing/quick"

	"dramtherm/internal/fbconfig"
)

func mustNew(t *testing.T) *Controller {
	t.Helper()
	c, err := New(DefaultConfig(fbconfig.DefaultSimParams))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestMapCoversGeometry: the address mapping reaches every
// (channel, dimm, bank) tuple and respects bounds.
func TestMapCoversGeometry(t *testing.T) {
	c := mustNew(t)
	p := fbconfig.DefaultSimParams
	seen := map[[3]int]bool{}
	for line := uint64(0); line < 4096; line++ {
		ch, d, b := c.Map(line * 64)
		if ch < 0 || ch >= p.LogicalChannels || d < 0 || d >= p.DIMMsPerChannel || b < 0 || b >= p.BanksPerDIMM {
			t.Fatalf("mapping out of range: %d %d %d", ch, d, b)
		}
		seen[[3]int{ch, d, b}] = true
	}
	want := p.LogicalChannels * p.DIMMsPerChannel * p.BanksPerDIMM
	if len(seen) != want {
		t.Fatalf("mapping covered %d of %d tuples", len(seen), want)
	}
}

// TestSequentialLinesSpreadChannels: adjacent lines alternate channels
// (line interleaving), so streams use the full system.
func TestSequentialLinesSpreadChannels(t *testing.T) {
	c := mustNew(t)
	ch0, _, _ := c.Map(0)
	ch1, _, _ := c.Map(64)
	if ch0 == ch1 {
		t.Fatal("adjacent lines on the same channel")
	}
}

func TestQueueFullRejection(t *testing.T) {
	c := mustNew(t)
	n := 0
	for i := 0; ; i++ {
		if !c.Enqueue(&Request{Addr: uint64(i) * 64}, 0) {
			break
		}
		n++
		if n > 1000 {
			t.Fatal("queue never fills")
		}
	}
	if n != fbconfig.DefaultSimParams.CtrlQueue {
		t.Fatalf("queue capacity = %d", n)
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", c.Stats().Rejected)
	}
	if !c.Full() {
		t.Fatal("Full() false at capacity")
	}
}

func TestCompletionAndLatency(t *testing.T) {
	c := mustNew(t)
	r := &Request{Core: 2, Addr: 64}
	c.Enqueue(r, 0)
	var comp []Completion
	for now := 0.0; now < 500 && len(comp) == 0; now += 3 {
		comp = c.Tick(now)
	}
	if len(comp) != 1 || comp[0].Req != r {
		t.Fatalf("completions = %+v", comp)
	}
	// Unloaded latency: tRCD+tCL+AMBfixed+burst+ctrl ≈ 73–97 ns.
	lat := c.Stats().MeanLatencyNS()
	if lat < 60 || lat > 120 {
		t.Fatalf("unloaded latency %v ns implausible", lat)
	}
	if c.Stats().ReadBytes != 64 {
		t.Fatalf("read bytes = %d", c.Stats().ReadBytes)
	}
}

// TestBandwidthCap drives an open loop of requests against a 2 GB/s cap
// and checks the served throughput converges to the cap.
func TestBandwidthCap(t *testing.T) {
	c := mustNew(t)
	c.SetBandwidthCap(2.0)
	served := 0
	addr := uint64(0)
	horizon := 2e6 // 2 ms
	for now := 0.0; now < horizon; now += 3 {
		for !c.Full() {
			c.Enqueue(&Request{Addr: addr}, now)
			addr += 64
		}
		served += len(c.Tick(now))
	}
	gbps := float64(served) * 64 / horizon
	if math.Abs(gbps-2.0) > 0.2 {
		t.Fatalf("served %v GB/s under 2 GB/s cap", gbps)
	}
	if c.Stats().ThrottleHit == 0 {
		t.Fatal("throttle never engaged")
	}
}

// TestUncappedThroughputNearLinkLimit: with both channels saturated the
// served read bandwidth approaches 2 × 64B/6ns ≈ 21.3 GB/s.
func TestUncappedThroughputNearLinkLimit(t *testing.T) {
	c := mustNew(t)
	served := 0
	addr := uint64(0)
	horizon := 1e6
	for now := 0.0; now < horizon; now += 3 {
		for !c.Full() {
			c.Enqueue(&Request{Addr: addr}, now)
			addr += 64
		}
		served += len(c.Tick(now))
	}
	gbps := float64(served) * 64 / horizon
	if gbps < 15 || gbps > 22 {
		t.Fatalf("uncapped read throughput %v GB/s, want ≈21", gbps)
	}
}

// TestTrafficGBps: the channels' per-DIMM local traffic adds up to the
// bytes the controller issued, one entry per (channel, DIMM).
func TestTrafficGBps(t *testing.T) {
	c := mustNew(t)
	addr := uint64(0)
	for now := 0.0; now < 1e5; now += 3 {
		for !c.Full() {
			c.Enqueue(&Request{Addr: addr}, now)
			addr += 64
		}
		c.Tick(now)
	}
	p := fbconfig.DefaultSimParams
	var entries int
	var local uint64
	for _, ch := range c.Channels() {
		for _, d := range ch.Traffic() {
			local += d.LocalRead + d.LocalWrite
			entries++
		}
	}
	if entries != p.LogicalChannels*p.DIMMsPerChannel {
		t.Fatalf("traffic entries = %d", entries)
	}
	st := c.Stats()
	if local == 0 || local != st.ReadBytes+st.WriteBytes {
		t.Fatalf("local sum %d, want %d", local, st.ReadBytes+st.WriteBytes)
	}
}

// TestDrain: ticking an idle controller serves every queued request.
func TestDrain(t *testing.T) {
	c := mustNew(t)
	for i := 0; i < 10; i++ {
		c.Enqueue(&Request{Addr: uint64(i) * 64}, 0)
	}
	var comps []Completion
	for now := 0.0; len(comps) < 10 && now < 1e6; now += 3 {
		comps = c.TickAppend(now, comps)
	}
	if len(comps) != 10 {
		t.Fatalf("drained %d of 10", len(comps))
	}
	if c.QueueLen() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

// Property: completion times are never before the enqueue time plus the
// minimal service latency, for random request patterns.
func TestCompletionCausalityProperty(t *testing.T) {
	f := func(addrsRaw []uint16, writesRaw []bool) bool {
		c, err := New(DefaultConfig(fbconfig.DefaultSimParams))
		if err != nil {
			return false
		}
		n := len(addrsRaw)
		if n > 40 {
			n = 40
		}
		enq := map[*Request]float64{}
		now := 0.0
		for i := 0; i < n; i++ {
			r := &Request{Addr: uint64(addrsRaw[i]) * 64}
			if i < len(writesRaw) {
				r.Write = writesRaw[i]
			}
			if c.Enqueue(r, now) {
				enq[r] = now
			}
			now += 3
		}
		for ; now < 1e5; now += 3 {
			for _, comp := range c.Tick(now) {
				if comp.Time < enq[comp.Req] {
					return false
				}
			}
			if c.QueueLen() == 0 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
