package machine

import (
	"testing"

	"coopabft/internal/ecc"
	"coopabft/internal/memctrl"
	"coopabft/internal/osmodel"
)

// functionalNode builds a functional machine with one 64KB allocation under
// scheme, ABFT-tagged (through malloc_ecc) or not (default protection).
func functionalNode(t *testing.T, scheme ecc.Scheme, abft bool) (*Machine, *osmodel.Allocation) {
	t.Helper()
	cfg := ScaledConfig(32)
	if !abft {
		cfg.DefaultScheme = scheme
	}
	m := NewFunctional(cfg)
	if !abft {
		return m, m.OS.Malloc("data", 1<<16)
	}
	a, err := m.OS.MallocECC("abft", 1<<16, scheme, true)
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

// injectAt plants pattern bits (in data byte 0) on the line at off.
func injectAt(t *testing.T, m *Machine, a *osmodel.Allocation, off uint64, bits byte) {
	t.Helper()
	var p memctrl.Pattern
	p.Data[0] = bits
	if err := m.OS.InjectAt(a.VBase()+off, p); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalProbeNilWithoutFaults(t *testing.T) {
	m, a := functionalNode(t, ecc.SECDED, true)
	if !m.functional() || New(ScaledConfig(32)).functional() {
		t.Fatal("functional() does not tell the platforms apart")
	}
	if m.Core != nil || m.Hier != nil {
		t.Error("functional platform built a core or cache hierarchy")
	}
	if m.Memory().Probe != nil {
		t.Fatal("probe armed on a fresh node")
	}
	touchRange(m, a, 1<<16)
	m.FlushCaches()
	if m.Memory().Probe != nil {
		t.Error("flush armed the probe over an empty fault map")
	}
	if r := m.Finish(); r.Cycles != 0 || r.Interrupts != 0 {
		t.Errorf("functional Finish = %+v, want zero timing and no interrupts", r)
	}
}

func TestFunctionalDecodesOncePerFlushEpoch(t *testing.T) {
	m, a := functionalNode(t, ecc.SECDED, true)
	injectAt(t, m, a, 128, 0x03) // double bit: detected, stays in the map
	uncorr := func() uint64 { return m.Ctl.Stats().UncorrectableErrors }

	touchRange(m, a, 1<<16)
	if uncorr() != 0 {
		t.Fatal("fault decoded before the flush that follows its injection")
	}
	m.FlushCaches()
	if m.Memory().Probe == nil {
		t.Fatal("flush did not arm the probe over a faulty line")
	}
	for i := 0; i < 3; i++ {
		m.Memory().Touch(a.VBase()+128, 8, i == 1) // read, write, read
	}
	touchRange(m, a, 1<<16)
	if uncorr() != 1 {
		t.Fatalf("decodes in one epoch = %d, want 1", uncorr())
	}
	m.FlushCaches()
	m.Memory().Touch(a.VBase()+130, 2, true) // first touch is a write
	if uncorr() != 2 {
		t.Fatalf("decodes after a second flush = %d, want 2", uncorr())
	}
}

func TestFunctionalCorrectableRepairsData(t *testing.T) {
	m, a := functionalNode(t, ecc.SECDED, true)
	var repaired []uint64
	m.Ctl.OnRepair = func(line uint64, diff [64]byte) {
		if diff[0] != 0x01 {
			t.Errorf("repair diff byte 0 = %#x, want 0x01", diff[0])
		}
		repaired = append(repaired, line)
	}
	injectAt(t, m, a, 64, 0x01) // single bit: SECDED corrects it
	m.FlushCaches()
	m.Memory().Touch(a.VBase()+64, 8, false)
	phys, err := m.OS.Translate(a.VBase() + 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 1 || repaired[0] != phys {
		t.Fatalf("OnRepair lines = %#x, want [%#x]", repaired, phys)
	}
	if st := m.Ctl.Stats(); st.CorrectedErrors != 1 || m.Ctl.FaultyLines() != 0 {
		t.Fatalf("after repair: stats %+v, faulty lines %d", st, m.Ctl.FaultyLines())
	}
	// The next touch finds the map empty and disarms the probe.
	m.Memory().Touch(a.VBase(), 8, false)
	if m.Memory().Probe != nil {
		t.Error("probe still armed over an empty fault map")
	}
}

func TestFunctionalUncorrectableOnABFTDataNotifiesOncePerEpoch(t *testing.T) {
	m, a := functionalNode(t, ecc.SECDED, true)
	injectAt(t, m, a, 256, 0x03)
	for epoch := 1; epoch <= 2; epoch++ {
		m.FlushCaches()
		touchRange(m, a, 1<<16)
		touchRange(m, a, 1<<16)
		pend := m.OS.PendingCorruptions()
		if len(pend) != 1 || pend[0].Alloc != a || pend[0].VirtAddr != a.VBase()+256 {
			t.Fatalf("epoch %d: pending = %+v, want one entry at %#x", epoch, pend, a.VBase()+256)
		}
	}
	if m.OS.Panicked() {
		t.Error("error on ABFT data entered panic mode")
	}
	if r := m.Finish(); r.Interrupts != 2 || r.OS.ExposedToABFT != 2 {
		t.Errorf("interrupts %d, exposed %d; want 2 and 2", r.Interrupts, r.OS.ExposedToABFT)
	}
}

func TestFunctionalUncorrectableOnOtherDataPanics(t *testing.T) {
	m, a := functionalNode(t, ecc.SECDED, false)
	injectAt(t, m, a, 256, 0x03)
	m.FlushCaches()
	touchRange(m, a, 1<<16)
	if !m.OS.Panicked() {
		t.Fatal("uncorrectable error outside ABFT data did not enter panic mode")
	}
	if len(m.OS.PendingCorruptions()) != 0 {
		t.Error("error outside ABFT data was exposed to ABFT")
	}
}

func TestFunctionalChipkillDecodesCompanionLine(t *testing.T) {
	m, a := functionalNode(t, ecc.Chipkill, true)
	// Chipkill corrects a single failed chip: corrupt one symbol.
	injectAt(t, m, a, 64, 0xff)
	phys, err := m.OS.Translate(a.VBase() + 64)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := m.OS.PhysToVirt(m.Ctl.Mem.Config().CompanionLine(phys))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushCaches()
	m.Memory().Touch(comp, 8, false) // the lock-stepped partner, not the line
	if st := m.Ctl.Stats(); st.CorrectedErrors != 1 || m.Ctl.FaultyLines() != 0 {
		t.Errorf("companion touch: stats %+v, faulty lines %d", st, m.Ctl.FaultyLines())
	}
}
