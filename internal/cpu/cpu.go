// Package cpu models the multicore processor of the level-1 architectural
// simulator (Table 4.1): cores that retire instructions at an
// issue-limited rate, generate L2 accesses from their workload's synthetic
// stream, sustain a bounded number of outstanding misses (MSHR-limited
// memory-level parallelism), and support the two DTM actuators — per-core
// clock gating (DTM-ACG) and chip-wide DVFS (DTM-CDVFS). Speculative
// traffic scales with core frequency, reproducing the §4.4.2 observation
// that slower cores generate fewer speculative memory accesses.
package cpu

import (
	"fmt"

	"dramtherm/internal/cache"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/fbdimm"
	"dramtherm/internal/memctrl"
	"dramtherm/internal/workload"
)

// missIssueCycles is the core-cycle cost charged per demand miss in the
// issue path (see the comment at the charge site).
const missIssueCycles = 20

// Config describes the processor.
type Config struct {
	Cores      int
	MaxFreqGHz float64
	// L2Domain[i] gives the index of the shared L2 serving core i; the
	// Chapter 4 processor has one domain, the Chapter 5 servers have one
	// per socket.
	L2Domain []int
	Params   fbconfig.SimParams
}

// DefaultConfig is the Chapter 4 four-core processor with one shared L2.
func DefaultConfig() Config {
	return Config{
		Cores:      4,
		MaxFreqGHz: 3.2,
		L2Domain:   []int{0, 0, 0, 0},
		Params:     fbconfig.DefaultSimParams,
	}
}

// CoreStats are the per-core counters of one measurement window.
type CoreStats struct {
	Retired     float64
	BusyCycles  float64 // cycles the core was clocked and unblocked
	StallCycles float64 // cycles blocked on MLP/queue
	DemandMiss  uint64
	SpecIssued  uint64
}

// Core is one processor core.
type Core struct {
	ID      int
	prof    *workload.Profile
	stream  *workload.Stream
	freqGHz float64
	gated   bool

	phaseMul float64 // memory-intensity multiplier for the current phase

	outstanding int
	pendingReq  *memctrl.Request
	pendingWB   []*memctrl.Request
	toNextAcc   float64 // instructions until next L2 access
	hitStall    float64 // remaining stall cycles from L2 hits

	stats CoreStats
}

// Assigned reports whether the core is running a program.
func (c *Core) Assigned() bool { return c.prof != nil }

// Profile returns the assigned program, or nil.
func (c *Core) Profile() *workload.Profile { return c.prof }

// Stats returns the window counters.
func (c *Core) Stats() CoreStats { return c.stats }

// Multicore couples cores, shared L2s and the memory controller into the
// steppable level-1 machine.
type Multicore struct {
	cfg   Config
	cores []*Core
	l2s   []*cache.Cache
	mem   *memctrl.Controller

	tickNS float64
	now    float64
	seed   int64

	// compBuf is the completion buffer handed to memctrl.TickAppend every
	// clock; free recycles completed Request structs back into access()
	// (a completed request is dead: the controller drops its reference on
	// pop and Step only reads it), so the steady-state tick allocates
	// nothing.
	compBuf []memctrl.Completion
	free    []*memctrl.Request
}

// New builds the machine. The memory controller is owned by the caller so
// experiment code can configure throttling before/independently of the
// processor.
func New(cfg Config, mem *memctrl.Controller, seed int64) (*Multicore, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("cpu: no cores")
	}
	if len(cfg.L2Domain) != cfg.Cores {
		return nil, fmt.Errorf("cpu: L2Domain has %d entries for %d cores", len(cfg.L2Domain), cfg.Cores)
	}
	nd := 0
	for _, d := range cfg.L2Domain {
		if d < 0 {
			return nil, fmt.Errorf("cpu: negative L2 domain")
		}
		if d+1 > nd {
			nd = d + 1
		}
	}
	m := &Multicore{cfg: cfg, mem: mem, seed: seed}
	// One tick per DDR2 clock, taken from the fbdimm timing so core-driven
	// controller ticks align exactly with link burst slots.
	m.tickNS = fbdimm.TimingFrom(cfg.Params).ClockNS
	for i := 0; i < nd; i++ {
		l2, err := cache.New(cache.Config{
			SizeKB:    cfg.Params.L2SizeKB,
			Ways:      cfg.Params.L2Ways,
			LineBytes: cfg.Params.LineBytes,
		}, cfg.Cores)
		if err != nil {
			return nil, err
		}
		m.l2s = append(m.l2s, l2)
	}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &Core{ID: i, freqGHz: cfg.MaxFreqGHz})
	}
	return m, nil
}

// Release hands the L2 arrays back to the cache pool for the next
// machine's build. Call it once the counters have been read; the machine
// must not be stepped or inspected afterwards.
func (m *Multicore) Release() {
	for _, l2 := range m.l2s {
		l2.Release()
	}
}

// Cores returns the core slice.
func (m *Multicore) Cores() []*Core { return m.cores }

// L2 returns the shared cache of domain d.
func (m *Multicore) L2(d int) *cache.Cache { return m.l2s[d] }

// L2Domains returns the number of L2 domains.
func (m *Multicore) L2Domains() int { return len(m.l2s) }

// Mem returns the memory controller.
func (m *Multicore) Mem() *memctrl.Controller { return m.mem }

// Now returns the current simulation time in ns.
func (m *Multicore) Now() float64 { return m.now }

// TickNS returns the simulation step (one DDR2 clock).
func (m *Multicore) TickNS() float64 { return m.tickNS }

// Assign binds a program to core id with the given memory-intensity
// phase multiplier (1 = the profile's nominal intensity). Passing nil
// idles the core.
func (m *Multicore) Assign(id int, p *workload.Profile, phaseMul float64) {
	c := m.cores[id]
	c.prof = p
	c.phaseMul = phaseMul
	if c.phaseMul <= 0 {
		c.phaseMul = 1
	}
	c.outstanding = 0
	c.pendingReq = nil
	c.pendingWB = nil
	c.hitStall = 0
	if p != nil {
		c.stream = workload.NewStream(p, id, m.seed)
		c.toNextAcc = c.gap()
	} else {
		c.stream = nil
	}
}

// SetFreq sets all cores to f GHz (DTM-CDVFS actuator).
func (m *Multicore) SetFreq(f float64) {
	for _, c := range m.cores {
		c.freqGHz = f
	}
}

// SetGated clock-gates or ungates core id (DTM-ACG actuator).
func (m *Multicore) SetGated(id int, gated bool) { m.cores[id].gated = gated }

// Gated reports whether core id is gated.
func (m *Multicore) Gated(id int) bool { return m.cores[id].gated }

// gap returns the instruction distance to the next L2 access under the
// profile's current phase multiplier.
func (c *Core) gap() float64 {
	apki := c.prof.L2APKI * c.phaseMul
	if apki <= 0 {
		return 1e12
	}
	return 1000 / apki
}

// Step advances the machine by one tick (one DDR2 clock).
func (m *Multicore) Step() {
	m.compBuf = m.mem.TickAppend(m.now, m.compBuf[:0])
	for _, comp := range m.compBuf {
		r := comp.Req
		if !r.Speculative && !r.Write {
			c := m.cores[r.Core]
			if c.outstanding > 0 {
				c.outstanding--
			}
		}
		if len(m.free) < 256 {
			m.free = append(m.free, r)
		}
	}
	for _, c := range m.cores {
		m.advanceCore(c)
	}
	m.now += m.tickNS
}

// newRequest returns a zeroed Request, recycled from the freelist when
// possible.
func (m *Multicore) newRequest() *memctrl.Request {
	if n := len(m.free); n > 0 {
		r := m.free[n-1]
		m.free = m.free[:n-1]
		*r = memctrl.Request{}
		return r
	}
	return &memctrl.Request{}
}

// Run advances the machine n ticks.
func (m *Multicore) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// RunFor advances the machine by ns nanoseconds.
func (m *Multicore) RunFor(ns float64) {
	n := int(ns / m.tickNS)
	m.Run(n)
}

func (m *Multicore) advanceCore(c *Core) {
	if c.prof == nil || c.gated || c.freqGHz <= 0 {
		return
	}
	// Retry deferred writebacks first; they only need queue space.
	for len(c.pendingWB) > 0 {
		if !m.mem.Enqueue(c.pendingWB[0], m.now) {
			break
		}
		c.pendingWB = c.pendingWB[1:]
	}

	cycles := c.freqGHz * m.tickNS
	if c.hitStall > 0 {
		if c.hitStall >= cycles {
			c.hitStall -= cycles
			c.stats.BusyCycles += cycles
			return
		}
		cycles -= c.hitStall
		c.stats.BusyCycles += c.hitStall
		c.hitStall = 0
	}

	for cycles > 0 {
		if c.outstanding >= c.prof.MLP {
			c.stats.StallCycles += cycles
			return
		}
		if c.pendingReq != nil {
			if !m.mem.Enqueue(c.pendingReq, m.now) {
				c.stats.StallCycles += cycles
				return
			}
			c.outstanding++
			c.pendingReq = nil
		}
		// Retire instructions until the next access or the cycle budget
		// runs out.
		instr := cycles * c.prof.IPC0
		if instr >= c.toNextAcc {
			instr = c.toNextAcc
		}
		used := instr / c.prof.IPC0
		cycles -= used
		c.stats.BusyCycles += used
		c.stats.Retired += instr
		c.toNextAcc -= instr
		if c.toNextAcc > 0 {
			return // budget exhausted mid-gap
		}
		c.toNextAcc = c.gap()
		m.access(c)
	}
}

// access performs one L2 access for core c and issues memory traffic on a
// miss.
func (m *Multicore) access(c *Core) {
	addr, kind := c.stream.Next()
	l2 := m.l2s[m.cfg.L2Domain[c.ID]]
	res := l2.Access(c.ID, addr, kind)
	if res.WritebackValid {
		wb := m.newRequest()
		wb.Core, wb.Addr, wb.Write = c.ID, res.Writeback, true
		if !m.mem.Enqueue(wb, m.now) {
			if len(c.pendingWB) < 64 {
				c.pendingWB = append(c.pendingWB, wb)
			} else if len(m.free) < 256 {
				m.free = append(m.free, wb) // dropped writeback
			}
		}
	}
	if res.Hit {
		// OOO execution hides most of the L2 hit latency; charge a
		// quarter of it as exposed stall.
		c.hitStall += float64(m.cfg.Params.L2HitLatency) / 4
		return
	}
	c.stats.DemandMiss++
	// Each miss costs a fixed number of *core* cycles in the issue path
	// (address generation, miss handling, dependent-chain restart). At
	// high clock this is negligible against DRAM latency; at low clock it
	// throttles demand — the effect that lets DTM-CDVFS actually shed
	// memory traffic (§4.4.2).
	c.hitStall += missIssueCycles
	req := m.newRequest()
	req.Core, req.Addr = c.ID, addr
	if m.mem.Enqueue(req, m.now) {
		c.outstanding++
	} else {
		c.pendingReq = req
	}
	// Speculative/prefetch traffic accompanies demand misses and scales
	// with core frequency.
	if c.stream.Speculative(c.freqGHz / m.cfg.MaxFreqGHz) {
		spec := m.newRequest()
		spec.Core, spec.Addr, spec.Speculative = c.ID, addr+64, true
		if m.mem.Enqueue(spec, m.now) {
			c.stats.SpecIssued++
		} else if len(m.free) < 256 {
			m.free = append(m.free, spec) // dropped speculative request
		}
	}
}

// ResetStats clears all window counters (core, cache, controller) while
// keeping microarchitectural state warm. Call at the end of warmup.
func (m *Multicore) ResetStats() {
	for _, c := range m.cores {
		c.stats = CoreStats{}
	}
	for _, l2 := range m.l2s {
		l2.ResetStats()
	}
	m.mem.ResetStats()
}
