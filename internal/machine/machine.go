// Package machine assembles the simulated node in two platforms.
//
// The timed platform (New) is the full evaluation platform of Figure 4 —
// the McSim + DRAMSim2 substitute: an in-order core, the L1/L2 hierarchy,
// the ECC-aware memory controller, the DRAM timing/power model, and the OS
// model, all driven by the instrumentation probes the ABFT kernels emit.
//
// The functional platform (NewFunctional) keeps what the cooperative
// runtime itself needs — the OS model, address translation and the memory
// controller's ECC regions, fault map, codecs and error registers — and
// drops the cache hierarchy, DRAM timing and core cycle accounting. It
// serves requests; the timed platform produces the paper's figures.
package machine

import (
	"fmt"

	"coopabft/internal/cache"
	"coopabft/internal/cpu"
	"coopabft/internal/dram"
	"coopabft/internal/ecc"
	"coopabft/internal/memctrl"
	"coopabft/internal/osmodel"
	"coopabft/internal/trace"
)

// InterruptHandlerCycles is the modeled cost of taking the ECC-error
// interrupt and running the §3.2.1 handler (read error registers, derive
// addresses, publish to the shared list).
const InterruptHandlerCycles = 20000

// Config assembles the component configurations.
type Config struct {
	CPU  cpu.Config
	L1   cache.Config
	L2   cache.Config
	DRAM dram.Config
	// DefaultScheme is the strong protection covering all memory not
	// explicitly relaxed through malloc_ecc.
	DefaultScheme ecc.Scheme
}

// DefaultConfig reproduces Table 3 verbatim.
func DefaultConfig() Config {
	return Config{
		CPU:           cpu.DefaultConfig(),
		L1:            cache.L1Default(),
		L2:            cache.L2Default(),
		DRAM:          dram.DefaultConfig(),
		DefaultScheme: ecc.Chipkill,
	}
}

// ScaledConfig shrinks the node to a 1/divisor "slice" so that scaled-down
// matrices (the harness default; the paper simulates 3000²) keep the
// paper's ratios: the L2 keeps the working-set-to-LLC ratio, and the
// always-on power terms (processor idle/max power, DRAM background power)
// shrink with it so static energy does not drown the dynamic deltas the
// experiments measure. Per-access DRAM energies are untouched — they are
// per-chip physics, not capacity.
func ScaledConfig(divisor int) Config {
	c := DefaultConfig()
	WithL2Divisor(divisor)(&c)
	return c
}

// Machine is one simulated node.
type Machine struct {
	cfg  Config
	Core *cpu.Core
	Hier *cache.Hierarchy
	Ctl  *memctrl.Controller
	OS   *osmodel.OS

	mem        *trace.Memory
	llcABFT    uint64 // Table 4: LLC misses to ABFT-protected blocks
	llcOther   uint64
	tlb        map[uint64]uint64 // tiny page-translation cache
	curVaddr   uint64            // vaddr of the access currently in flight
	interrupts uint64

	// decoded is the functional platform's stand-in for the cache: the
	// physical lines already decoded since the last FlushCaches. It is nil
	// on the timed platform.
	decoded map[uint64]struct{}
}

// New builds a machine.
func New(cfg Config) *Machine {
	m := &Machine{
		cfg:  cfg,
		Core: cpu.New(cfg.CPU),
		tlb:  make(map[uint64]uint64),
	}
	mem := dram.New(cfg.DRAM)
	m.Ctl = memctrl.New(mem, cfg.DefaultScheme)
	m.OS = osmodel.New(m.Ctl)

	// Wrap the OS interrupt handler to charge the handler cost to the core.
	osHandler := m.Ctl.OnUncorr
	m.Ctl.OnUncorr = func(rec memctrl.ErrorRecord) {
		m.interrupts++
		m.Core.Advance(InterruptHandlerCycles)
		osHandler(rec)
	}

	// TLB shootdown on page remaps (retirement/migration).
	m.OS.OnRemap = func(vpage uint64) { delete(m.tlb, vpage) }

	m.Hier = cache.NewHierarchy(cfg.L1, cfg.L2, m.handleMiss)
	m.mem = &trace.Memory{Probe: m.probe, OnOps: m.ops}
	return m
}

// NewFunctional builds the functional platform: the same OS model, memory
// controller and address translation as New, without the cache hierarchy,
// DRAM timing/power model or core (Core and Hier stay nil; cfg's CPU and
// cache levels are unused).
//
// Decode rule: a line in the controller's fault map is decoded on its first
// touch, read or write, since the last FlushCaches — the touch that would
// miss the flushed caches of the timed platform — through the same
// Controller path a demand fill takes, chipkill companion line included.
// While the fault map is empty the Memory probe is nil, so a touch costs
// one branch; FlushCaches arms it when faults are present and it disarms
// itself once they are gone. Faults therefore become visible after the
// FlushCaches that follows their injection, as on the timed platform.
func NewFunctional(cfg Config) *Machine {
	m := &Machine{
		cfg:     cfg,
		tlb:     make(map[uint64]uint64),
		decoded: make(map[uint64]struct{}),
	}
	m.Ctl = memctrl.New(dram.New(cfg.DRAM), cfg.DefaultScheme)
	m.OS = osmodel.New(m.Ctl)
	osHandler := m.Ctl.OnUncorr
	m.Ctl.OnUncorr = func(rec memctrl.ErrorRecord) {
		m.interrupts++
		osHandler(rec)
	}
	m.OS.OnRemap = func(vpage uint64) { delete(m.tlb, vpage) }
	m.mem = &trace.Memory{}
	return m
}

// functional reports whether m is the functional platform.
func (m *Machine) functional() bool { return m.decoded != nil }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Memory returns the instrumentation endpoint kernels write their accesses
// and operation counts to.
func (m *Machine) Memory() *trace.Memory { return m.mem }

// ops advances compute time.
func (m *Machine) ops(n int) { m.Core.Compute(uint64(n)) }

// probe walks one data access through translation and the cache hierarchy.
func (m *Machine) probe(vaddr uint64, write bool) {
	paddr, ok := m.translate(vaddr)
	if !ok {
		// Accesses outside OS allocations (kernel scratch that was not
		// allocated through the OS model) are ignored by the platform.
		return
	}
	m.curVaddr = vaddr
	switch m.Hier.Access(paddr, write) {
	case cache.LevelL1:
		m.Core.L1Hit()
	case cache.LevelL2:
		m.Core.L2Hit()
	case cache.LevelMemory:
		// Timing handled in handleMiss via the MSHR window.
	}
}

// decodeProbe is the functional platform's probe: the first touch of a
// line since the last flush decodes it. It disarms itself once the fault
// map is empty.
func (m *Machine) decodeProbe(vaddr uint64, _ bool) {
	if m.Ctl.FaultyLines() == 0 {
		m.mem.Probe = nil
		return
	}
	paddr, ok := m.translate(vaddr)
	if !ok {
		return
	}
	line := paddr &^ (trace.LineSize - 1)
	if _, seen := m.decoded[line]; seen {
		return
	}
	m.decoded[line] = struct{}{}
	m.Ctl.Decode(line)
}

// handleMiss services the L2 miss stream at the memory controller.
func (m *Machine) handleMiss(ev cache.MissEvent) {
	if ev.Demand {
		if m.OS.Space.IsABFT(m.curVaddr) {
			m.llcABFT++
		} else {
			m.llcOther++
		}
		issue := m.Core.BeginMiss()
		res := m.Ctl.Access(issue, ev.Addr, false, true)
		m.Core.CompleteMiss(res.Complete)
		return
	}
	// Writebacks occupy banks and consume energy off the critical path.
	m.Ctl.Access(m.Core.Now(), ev.Addr, ev.Write, false)
}

func (m *Machine) translate(vaddr uint64) (uint64, bool) {
	page := vaddr / osmodel.PageSize
	if frame, ok := m.tlb[page]; ok {
		return frame + vaddr%osmodel.PageSize, true
	}
	paddr, err := m.OS.Translate(vaddr)
	if err != nil {
		return 0, false
	}
	m.tlb[page] = paddr - vaddr%osmodel.PageSize
	return paddr, true
}

// FlushCaches writes back all dirty lines and empties the hierarchy, so
// subsequent reads observe memory contents (used between program phases and
// by fault-injection campaigns: a DRAM error is only visible on a fetch).
// On the functional platform it starts a new decode epoch and arms the
// decode probe if the fault map holds any line.
func (m *Machine) FlushCaches() {
	if m.functional() {
		clear(m.decoded)
		m.mem.Probe = nil
		if m.Ctl.FaultyLines() > 0 {
			m.mem.Probe = m.decodeProbe
		}
		return
	}
	m.Hier.Flush()
}

// Result summarizes a finished run.
type Result struct {
	Cycles       uint64
	Seconds      float64
	Instructions uint64
	IPC          float64

	ProcEnergyJ   float64
	MemDynamicJ   float64
	MemStandbyJ   float64
	SystemEnergyJ float64

	LLCMissABFT  uint64
	LLCMissOther uint64
	RowHitRate   float64
	Interrupts   uint64
	ECC          memctrl.Stats
	OS           osmodel.Stats
}

// MemEnergyJ returns total memory energy.
func (r Result) MemEnergyJ() float64 { return r.MemDynamicJ + r.MemStandbyJ }

// Finish drains outstanding misses, charges standby energy, and returns the
// run summary. The machine can keep running afterwards, but energy totals
// are only consistent at Finish points. On the functional platform only the
// event counters (Interrupts, ECC, OS) are filled in.
func (m *Machine) Finish() Result {
	if m.functional() {
		return Result{Interrupts: m.interrupts, ECC: m.Ctl.Stats(), OS: m.OS.Stats()}
	}
	m.Core.Drain()
	st := m.Ctl.Mem.Finalize(m.Core.Now(), m.cfg.CPU.ClockHz)
	r := Result{
		Cycles:       m.Core.Now(),
		Seconds:      m.Core.Seconds(),
		Instructions: m.Core.Instructions(),
		IPC:          m.Core.IPC(),
		ProcEnergyJ:  m.Core.EnergyJ(),
		MemDynamicJ:  st.DynamicEnergyJ + m.Ctl.Stats().ECCEnergyJ,
		MemStandbyJ:  st.StandbyEnergyJ,
		LLCMissABFT:  m.llcABFT,
		LLCMissOther: m.llcOther,
		RowHitRate:   st.RowHitRate(),
		Interrupts:   m.interrupts,
		ECC:          m.Ctl.Stats(),
		OS:           m.OS.Stats(),
	}
	r.SystemEnergyJ = r.ProcEnergyJ + r.MemDynamicJ + r.MemStandbyJ
	return r
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("machine.Result{%.3g s, IPC %.3f, proc %.3g J, mem %.3g J (dyn %.3g), llc abft/other %d/%d}",
		r.Seconds, r.IPC, r.ProcEnergyJ, r.MemEnergyJ(), r.MemDynamicJ, r.LLCMissABFT, r.LLCMissOther)
}
