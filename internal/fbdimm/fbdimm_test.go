package fbdimm

import (
	"testing"

	"dramtherm/internal/fbconfig"
)

func testTiming() Timing { return TimingFrom(fbconfig.DefaultSimParams) }

func mustChannel(t *testing.T, dimms, banks int) *Channel {
	t.Helper()
	c, err := NewChannel(testTiming(), dimms, banks)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTimingFrom(t *testing.T) {
	tm := testTiming()
	if tm.ClockNS != 3 { // 667 MT/s → 3 ns DDR2 clock
		t.Fatalf("ClockNS = %v", tm.ClockNS)
	}
	if tm.TRCD != 15 || tm.TCL != 15 || tm.TRC != 54 {
		t.Fatalf("timing = %+v", tm)
	}
	if tm.ReadBurstNS != 6 || tm.WriteBurstNS != 12 {
		t.Fatalf("burst = %v/%v", tm.ReadBurstNS, tm.WriteBurstNS)
	}
}

func TestNewChannelErrors(t *testing.T) {
	if _, err := NewChannel(testTiming(), 0, 8); err == nil {
		t.Fatal("0 DIMMs accepted")
	}
	if _, err := NewChannel(testTiming(), 4, 0); err == nil {
		t.Fatal("0 banks accepted")
	}
}

func TestBankOccupancy(t *testing.T) {
	c := mustChannel(t, 4, 8)
	if !c.CanIssue(0, 0, 0, false) {
		t.Fatal("fresh bank not issuable")
	}
	c.Issue(0, 0, 0, false)
	// Close-page auto-precharge: the bank is busy for tRC = 54 ns.
	if c.CanIssue(10, 0, 0, false) {
		t.Fatal("bank free inside tRC")
	}
	if got := c.BankFreeAt(0, 0); got != 54 {
		t.Fatalf("bank free at %v, want 54", got)
	}
	// A different bank is fine once the command slot and the northbound
	// return slot free up (one read burst after the first issue).
	if !c.CanIssue(6, 0, 1, false) {
		t.Fatal("sibling bank blocked")
	}
}

func TestVRL(t *testing.T) {
	// Variable read latency: on an idle channel, a read to each farther
	// DIMM completes later, by two AMB hops (command down, data back).
	tm := testTiming()
	prev := -1.0
	for d := 0; d < 4; d++ {
		l := mustChannel(t, 4, 8).Issue(0, d, 0, false)
		if prev >= 0 && l-prev != 2*tm.HopNS {
			t.Fatalf("DIMM %d read at %v, DIMM %d at %v: want %v ns apart", d, l, d-1, prev, 2*tm.HopNS)
		}
		prev = l
	}
}

func TestTrafficAccounting(t *testing.T) {
	c := mustChannel(t, 4, 8)
	// One read to DIMM 2: 64B local there, 64B bypass at DIMMs 0 and 1.
	c.Issue(0, 2, 0, false)
	tr := c.Traffic()
	if tr[2].LocalRead != 64 || tr[2].LocalWrite != 0 {
		t.Fatalf("DIMM2 = %+v", tr[2])
	}
	if tr[0].Bypass != 64 || tr[1].Bypass != 64 || tr[3].Bypass != 0 {
		t.Fatalf("bypass = %+v", tr)
	}
	// One write to DIMM 0: local write, no bypass anywhere.
	c.Issue(100, 0, 1, true)
	tr = c.Traffic()
	if tr[0].LocalWrite != 64 {
		t.Fatalf("DIMM0 write = %+v", tr[0])
	}
	c.ResetStats()
	for d, tr := range c.Traffic() {
		if tr != (DIMMTrafficBytes{}) {
			t.Fatalf("reset kept DIMM %d counters %+v", d, tr)
		}
	}
}

// TestNorthboundSaturation drives reads as fast as the channel accepts
// and checks throughput lands at the northbound link limit (one 64B line
// per ReadBurstNS), not above it.
func TestNorthboundSaturation(t *testing.T) {
	c := mustChannel(t, 4, 8)
	tm := testTiming()
	issued := 0
	horizon := 100000.0 // 100 µs
	bank := 0
	for now := 0.0; now < horizon; now += tm.ClockNS {
		for try := 0; try < 8; try++ {
			d, b := (issued+try)%4, ((issued+try)/4)%8
			if c.CanIssue(now, d, b, false) {
				c.Issue(now, d, b, false)
				issued++
				break
			}
		}
		bank++
	}
	gbps := float64(issued) * 64 / horizon // bytes per ns = GB/s
	limit := 64 / tm.ReadBurstNS
	if gbps > limit*1.01 {
		t.Fatalf("throughput %v exceeds link limit %v", gbps, limit)
	}
	// Rotating over DIMMs adds VRL hop jitter to the return path, so the
	// achieved rate sits somewhat below the ideal link limit.
	if gbps < limit*0.7 {
		t.Fatalf("throughput %v too far below link limit %v", gbps, limit)
	}
}

// TestWriteSouthboundOccupancy: back-to-back writes are limited by the
// southbound data rate (half the northbound).
func TestWriteSouthboundOccupancy(t *testing.T) {
	c := mustChannel(t, 4, 8)
	tm := testTiming()
	c.Issue(0, 0, 0, true)
	if c.CanIssue(tm.WriteBurstNS-1, 1, 0, true) {
		t.Fatal("southbound free during write burst")
	}
	if !c.CanIssue(tm.WriteBurstNS, 1, 0, true) {
		t.Fatal("southbound still busy after write burst")
	}
}

func TestPostedWriteCompletion(t *testing.T) {
	c := mustChannel(t, 4, 8)
	done := c.Issue(0, 0, 0, true)
	// Writes complete once accepted (posted), far sooner than a read.
	read := mustChannel(t, 4, 8).Issue(0, 0, 0, false)
	if done >= read {
		t.Fatalf("write completion %v not before read %v", done, read)
	}
}

func benchParams() fbconfig.SimParams { return fbconfig.DefaultSimParams }
