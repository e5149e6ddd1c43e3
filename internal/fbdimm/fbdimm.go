// Package fbdimm is a transaction-level simulator of the Fully Buffered
// DIMM interconnect of §3.2: daisy-chained AMBs on narrow south/northbound
// links, DDR2 banks behind each AMB, close-page auto-precharge timing, and
// variable read latency (VRL) by chain position. It accounts per-DIMM
// local read/write bytes and per-AMB bypass bytes (Fig. 3.2). The level-2
// power model does not read that split: it assumes an even share per
// DIMM, and the split feeds the oracle test that checks the assumption.
// DTM never acts on a channel directly; a design point's bandwidth cap
// is enforced upstream by the memory controller.
//
// The simulated unit is one *logical* channel: a ganged pair of physical
// channels that together move one 64-byte line per transaction (burst
// length four over two channels, §3.3). Per-physical-DIMM traffic is half
// the logical DIMM traffic.
package fbdimm

import (
	"fmt"
	"math"

	"dramtherm/internal/fbconfig"
)

// Times are float64 nanoseconds from the start of the simulation run.

// Timing collects the DDR2/FBDIMM latencies in nanoseconds.
type Timing struct {
	TRCD, TCL, TRC float64
	ClockNS        float64 // DDR2 clock period (3 ns at 667 MT/s)
	HopNS          float64 // AMB forward latency per chain hop
	ReadBurstNS    float64 // northbound occupancy per 64B line
	WriteBurstNS   float64 // southbound occupancy per 64B line
	CtrlOverheadNS float64
	// AMBFixedNS is the AMB serialization/deserialization overhead of the
	// narrow-link protocol: FBDIMM reads pay roughly 20–30 ns over a raw
	// DDR2 access even to the first DIMM (§3.2's increased-latency cost).
	AMBFixedNS float64
}

// TimingFrom derives Timing from the Table 4.1 parameters. The northbound
// link of a physical channel matches one DDR2 channel's read bandwidth, so
// a 64B line on the ganged pair occupies the link for two DDR2 clocks
// (32B per channel at 16B/clock); the southbound data rate is half that.
func TimingFrom(p fbconfig.SimParams) Timing {
	// 3 ns at 667 MT/s; rounded to a quarter nanosecond so burst slots
	// align with simulation ticks (667 is the marketing name of 666.67).
	clock := math.Round(2000.0/float64(p.ChannelMTps)*4) / 4
	return Timing{
		TRCD: p.TRCD, TCL: p.TCL, TRC: p.TRC,
		ClockNS:        clock,
		HopNS:          4,
		ReadBurstNS:    2 * clock,
		WriteBurstNS:   4 * clock,
		CtrlOverheadNS: p.CtrlOverheadNS,
		AMBFixedNS:     25,
	}
}

// DIMMTrafficBytes accumulates the Fig. 3.2 traffic decomposition.
type DIMMTrafficBytes struct {
	LocalRead  uint64
	LocalWrite uint64
	Bypass     uint64
}

// Channel is one logical FBDIMM channel.
type Channel struct {
	timing Timing
	dimms  int
	banks  int

	bankFree  []float64 // next-free time per (dimm*banks+bank)
	southFree float64   // southbound link (commands + write data)
	northFree float64   // northbound link (read returns)
	traffic   []DIMMTrafficBytes
}

// NewChannel builds a channel with the given DIMM/bank geometry.
func NewChannel(t Timing, dimms, banks int) (*Channel, error) {
	if dimms <= 0 || banks <= 0 {
		return nil, fmt.Errorf("fbdimm: invalid geometry %d DIMMs × %d banks", dimms, banks)
	}
	return &Channel{
		timing:   t,
		dimms:    dimms,
		banks:    banks,
		bankFree: make([]float64, dimms*banks),
		traffic:  make([]DIMMTrafficBytes, dimms),
	}, nil
}

// DIMMs returns the number of DIMMs on the channel.
func (c *Channel) DIMMs() int { return c.dimms }

// BankFreeAt returns when the given bank is next free.
func (c *Channel) BankFreeAt(dimm, bank int) float64 { return c.bankFree[dimm*c.banks+bank] }

// CanIssue reports whether a transaction to (dimm, bank) could start at
// time now (bank and required link free).
func (c *Channel) CanIssue(now float64, dimm, bank int, write bool) bool {
	if c.bankFree[dimm*c.banks+bank] > now {
		return false
	}
	if write {
		return c.southFree <= now
	}
	// Reads need a southbound command slot now and the northbound link
	// free by the time the data is ready (otherwise the return path is
	// backlogged and issuing would only lengthen the reservation).
	dataValid := now + c.timing.TRCD + c.timing.TCL +
		c.timing.AMBFixedNS + c.timing.HopNS*float64(dimm)
	return c.southFree <= now && c.northFree <= dataValid
}

// Issue schedules a 64-byte transaction on (dimm, bank) starting at now
// and returns the completion time as seen by the requester (data returned
// for reads; write accepted and bank cycle reserved for writes). The
// caller must have checked CanIssue.
func (c *Channel) Issue(now float64, dimm, bank int, write bool) float64 {
	bi := dimm*c.banks + bank
	hop := c.timing.HopNS * float64(dimm) // VRL: farther DIMMs take longer

	// Close page with auto precharge: the bank is busy for a full tRC.
	c.bankFree[bi] = now + c.timing.TRC

	// Structural traffic accounting: every byte to DIMM d passes through
	// AMBs 0..d-1 (commands+write data southbound, read data northbound).
	for i := 0; i < dimm; i++ {
		c.traffic[i].Bypass += 64
	}

	if write {
		// Write data streams down the southbound link.
		c.southFree = now + c.timing.WriteBurstNS
		c.traffic[dimm].LocalWrite += 64
		// Posted write: requester is done once the data is accepted.
		return now + c.timing.WriteBurstNS + hop
	}

	// Command slot is brief; subsequent commands may follow next clock.
	c.southFree = now + c.timing.ClockNS
	dataValid := now + c.timing.TRCD + c.timing.TCL + hop + c.timing.AMBFixedNS
	start := dataValid
	if c.northFree > start {
		start = c.northFree
	}
	c.northFree = start + c.timing.ReadBurstNS
	c.traffic[dimm].LocalRead += 64
	return start + c.timing.ReadBurstNS + hop + c.timing.CtrlOverheadNS
}

// Traffic returns the accumulated per-DIMM traffic decomposition.
func (c *Channel) Traffic() []DIMMTrafficBytes {
	out := make([]DIMMTrafficBytes, len(c.traffic))
	copy(out, c.traffic)
	return out
}

// ResetStats clears traffic counters (bank/link state is kept), used after
// level-1 warmup.
func (c *Channel) ResetStats() {
	for i := range c.traffic {
		c.traffic[i] = DIMMTrafficBytes{}
	}
}
