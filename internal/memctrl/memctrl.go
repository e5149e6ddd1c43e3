// Package memctrl implements the FBDIMM memory controller of Table 4.1: a
// 64-entry transaction queue, line-interleaved address mapping across
// logical channels/banks/DIMMs, first-ready FCFS scheduling over the
// fbdimm channel model, and the row-activation throttling window that
// implements bandwidth capping (§2.3/§5.2.1). DTM reaches this level
// only through the design point a level-1 build simulates: a bandwidth
// cap is set once per build, and a MemOff point is a zero record that
// never reaches the controller.
package memctrl

import (
	"fmt"
	"math"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/fbdimm"
)

// Request is one 64-byte memory transaction.
type Request struct {
	Core  int
	Addr  uint64
	Write bool
	// Speculative marks prefetch/speculative traffic: it heats the memory
	// but nobody waits for it (§4.4.2: slower cores issue fewer of these).
	Speculative bool

	channel, dimm, bank int
	enqueued            float64
}

// Completion reports a finished request.
type Completion struct {
	Req  *Request
	Time float64
}

// Config sizes the controller.
type Config struct {
	Channels         int // logical channels
	DIMMs            int // per channel
	Banks            int // per DIMM
	QueueSize        int
	Timing           fbdimm.Timing
	WindowNS         float64 // throttle accounting window
	MaxIssuesPerTick int
}

// DefaultConfig derives the controller configuration from Table 4.1.
func DefaultConfig(p fbconfig.SimParams) Config {
	return Config{
		Channels:         p.LogicalChannels,
		DIMMs:            p.DIMMsPerChannel,
		Banks:            p.BanksPerDIMM,
		QueueSize:        p.CtrlQueue,
		Timing:           fbdimm.TimingFrom(p),
		WindowNS:         1e5, // 100 µs cap-accounting window
		MaxIssuesPerTick: 4,
	}
}

// Stats aggregates controller activity.
type Stats struct {
	ReadBytes   uint64
	WriteBytes  uint64
	Enqueued    uint64
	Rejected    uint64 // enqueue attempts that found the queue full
	Issued      uint64
	ThrottleHit uint64 // issue attempts blocked by the bandwidth cap
	LatencySum  float64
	LatencyN    uint64
}

// MeanLatencyNS returns the mean read latency observed.
func (s Stats) MeanLatencyNS() float64 {
	if s.LatencyN == 0 {
		return 0
	}
	return s.LatencySum / float64(s.LatencyN)
}

// Controller is the memory controller plus its channels.
type Controller struct {
	cfg      Config
	channels []*fbdimm.Channel

	queue       []*Request
	completions completionHeap
	stats       Stats

	// Bandwidth throttle: a budget of 64B transactions per window.
	capBytesPerSec float64 // 0 or +Inf = unlimited
	windowStart    float64
	windowBudget   float64 // transactions remaining this window
	budgetValid    bool

	chBits, dimmBits, bankBits uint
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Channels <= 0 || cfg.QueueSize <= 0 {
		return nil, fmt.Errorf("memctrl: invalid config %+v", cfg)
	}
	if cfg.MaxIssuesPerTick <= 0 {
		cfg.MaxIssuesPerTick = 4
	}
	c := &Controller{cfg: cfg, capBytesPerSec: math.Inf(1)}
	for i := 0; i < cfg.Channels; i++ {
		ch, err := fbdimm.NewChannel(cfg.Timing, cfg.DIMMs, cfg.Banks)
		if err != nil {
			return nil, err
		}
		c.channels = append(c.channels, ch)
	}
	c.chBits = log2(cfg.Channels)
	c.dimmBits = log2(cfg.DIMMs)
	c.bankBits = log2(cfg.Banks)
	return c, nil
}

func log2(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// SetBandwidthCap limits aggregate throughput to gbps gigabytes/second
// (0 or +Inf disables the cap). This models the activation-count window
// of the Intel 5000X chipset: with close-page mode each transaction is one
// activation, so capping activations caps bandwidth (§5.2.2).
func (c *Controller) SetBandwidthCap(gbps float64) {
	if gbps <= 0 || math.IsInf(gbps, 1) {
		c.capBytesPerSec = math.Inf(1)
	} else {
		c.capBytesPerSec = gbps * 1e9
	}
	c.budgetValid = false
}

// QueueLen returns the number of waiting requests.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Full reports whether the queue has no free entry.
func (c *Controller) Full() bool { return len(c.queue) >= c.cfg.QueueSize }

// Map assigns channel/DIMM/bank from the line address: lines interleave
// across channels, then banks, then DIMMs (page-ish DIMM interleaving so
// traffic spreads evenly over the chain, §3.3's even-share assumption).
func (c *Controller) Map(addr uint64) (channel, dimm, bank int) {
	line := addr >> 6
	channel = int(line & uint64(c.cfg.Channels-1))
	line >>= c.chBits
	bank = int(line & uint64(c.cfg.Banks-1))
	line >>= c.bankBits
	dimm = int(line & uint64(c.cfg.DIMMs-1))
	return
}

// Enqueue adds a request at time now. It returns false when the queue is
// full, in which case the requester must stall and retry.
func (c *Controller) Enqueue(r *Request, now float64) bool {
	if len(c.queue) >= c.cfg.QueueSize {
		c.stats.Rejected++
		return false
	}
	r.channel, r.dimm, r.bank = c.Map(r.Addr)
	r.enqueued = now
	c.queue = append(c.queue, r)
	c.stats.Enqueued++
	return true
}

// refillWindow resets the throttle budget when a new window starts or the
// cap has changed.
func (c *Controller) refillWindow(now float64) {
	if c.budgetValid && now-c.windowStart < c.cfg.WindowNS {
		return
	}
	if !c.budgetValid {
		c.windowStart = now
	} else {
		c.windowStart = now - math.Mod(now-c.windowStart, c.cfg.WindowNS)
	}
	c.budgetValid = true
	if math.IsInf(c.capBytesPerSec, 1) {
		c.windowBudget = math.Inf(1)
		return
	}
	c.windowBudget = c.capBytesPerSec * c.cfg.WindowNS / 1e9 / 64
}

// Tick attempts to issue queued requests at time now and returns all
// completions due at or before now. Call with monotonically nondecreasing
// times; a typical caller ticks every DDR2 clock (3 ns).
func (c *Controller) Tick(now float64) []Completion {
	return c.TickAppend(now, nil)
}

// TickAppend is Tick appending completions to out instead of allocating
// a fresh slice; the cycle-driven level-1 loop passes a buffer it reuses
// every clock (typically out[:0]), making the common empty tick
// allocation-free.
func (c *Controller) TickAppend(now float64, out []Completion) []Completion {
	c.refillWindow(now)
	issued := 0
	for i := 0; i < len(c.queue) && issued < c.cfg.MaxIssuesPerTick; i++ {
		if c.windowBudget < 1 {
			c.stats.ThrottleHit++
			break
		}
		r := c.queue[i]
		ch := c.channels[r.channel]
		if !ch.CanIssue(now, r.dimm, r.bank, r.Write) {
			continue
		}
		done := ch.Issue(now, r.dimm, r.bank, r.Write)
		if !math.IsInf(c.windowBudget, 1) {
			c.windowBudget--
		}
		c.stats.Issued++
		if r.Write {
			c.stats.WriteBytes += 64
		} else {
			c.stats.ReadBytes += 64
			c.stats.LatencySum += done - r.enqueued
			c.stats.LatencyN++
		}
		c.completions.push(Completion{Req: r, Time: done})
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		i--
		issued++
	}

	for len(c.completions) > 0 && c.completions[0].Time <= now {
		out = append(out, c.completions.pop())
	}
	return out
}

// Stats returns aggregate controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Channels exposes the underlying channels. Their per-DIMM traffic
// split feeds the even-share oracle (sim's TestEvenShareAssumption),
// which checks the power model's even-share assumption; the power model
// itself never reads it.
func (c *Controller) Channels() []*fbdimm.Channel { return c.channels }

// ResetStats clears throughput/latency counters (in-flight state kept).
func (c *Controller) ResetStats() {
	c.stats = Stats{}
	for _, ch := range c.channels {
		ch.ResetStats()
	}
}

// completionHeap is a min-heap on Completion.Time. The sift algorithms
// mirror container/heap exactly (same comparisons, same swaps), so
// equal-time pop order matches the previous heap.Push/heap.Pop
// implementation; the hand-rolled methods exist to avoid boxing every
// Completion through interface{} — one allocation per issued request on
// the level-1 hot path.
type completionHeap []Completion

func (h *completionHeap) push(x Completion) {
	*h = append(*h, x)
	s := *h
	// Sift up, as container/heap's up().
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].Time < s[i].Time) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *completionHeap) pop() Completion {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift down over s[:n], as container/heap's down().
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].Time < s[j].Time {
			j = j2
		}
		if !(s[j].Time < s[i].Time) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	x := s[n]
	s[n] = Completion{} // drop the *Request reference
	*h = s[:n]
	return x
}
