// Package core is the paper's contribution: the cooperative software-
// hardware runtime that coordinates ABFT with main-memory ECC (ARE — ABFT
// plus Relaxed ECC). It binds the ABFT kernels of package abft to the
// simulated platform of package machine:
//
//   - ABFT-protected data structures are allocated with the OS's malloc_ecc
//     under the strategy's relaxed scheme, programming the memory
//     controller's ECC region registers (adjacent structures share
//     registers);
//   - everything else stays under the node's strong default scheme;
//   - ECC-uncorrectable-error interrupts flow through the OS into the
//     kernels' notified verification, which repairs exactly the corrupted
//     elements instead of recomputing checksums (§3.2.2);
//   - hardware corrections are written back into application storage and
//     residual fault state is cleared when ABFT overwrites corrupted data.
package core

import (
	"errors"
	"fmt"
	"strings"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/ecc"
	"coopabft/internal/machine"
	"coopabft/internal/trace"
)

// Strategy is one of the six ECC configurations evaluated in §5.1.
type Strategy int

const (
	// NoECC runs everything unprotected (test 1, the baseline).
	NoECC Strategy = iota
	// WholeChipkill (W_CK) applies chipkill to all data (test 2).
	WholeChipkill
	// PartialChipkillNoECC (P_CK+No_ECC) removes ECC from ABFT-protected
	// data and keeps chipkill elsewhere (test 3).
	PartialChipkillNoECC
	// WholeSECDED (W_SD) applies SECDED to all data (test 4).
	WholeSECDED
	// PartialSECDEDNoECC (P_SD+No_ECC) removes ECC from ABFT-protected data
	// and keeps SECDED elsewhere (test 5).
	PartialSECDEDNoECC
	// PartialChipkillSECDED (P_CK+P_SD) keeps chipkill on unprotected data
	// and drops ABFT-protected data to SECDED (test 6).
	PartialChipkillSECDED
)

// Strategies lists all six in the paper's order.
var Strategies = []Strategy{
	NoECC, WholeChipkill, PartialChipkillNoECC,
	WholeSECDED, PartialSECDEDNoECC, PartialChipkillSECDED,
}

// String returns the paper's label.
func (s Strategy) String() string {
	switch s {
	case NoECC:
		return "No_ECC"
	case WholeChipkill:
		return "W_CK"
	case PartialChipkillNoECC:
		return "P_CK+No_ECC"
	case WholeSECDED:
		return "W_SD"
	case PartialSECDEDNoECC:
		return "P_SD+No_ECC"
	case PartialChipkillSECDED:
		return "P_CK+P_SD"
	default:
		return "Strategy(?)"
	}
}

// ErrUnknownStrategy reports a strategy label ParseStrategy cannot map.
var ErrUnknownStrategy = errors.New("core: unknown ECC strategy")

// ParseStrategy maps a paper label (case-insensitively) back to its
// Strategy — the inverse of String. Command-line flags and per-request
// strategy selection in the serving path both go through here.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownStrategy, name, Strategies)
}

// DefaultScheme returns the protection for data outside ABFT coverage.
func (s Strategy) DefaultScheme() ecc.Scheme {
	switch s {
	case NoECC:
		return ecc.None
	case WholeChipkill, PartialChipkillNoECC, PartialChipkillSECDED:
		return ecc.Chipkill
	default:
		return ecc.SECDED
	}
}

// ABFTScheme returns the protection for ABFT-protected data.
func (s Strategy) ABFTScheme() ecc.Scheme {
	switch s {
	case NoECC, PartialChipkillNoECC, PartialSECDEDNoECC:
		return ecc.None
	case WholeChipkill:
		return ecc.Chipkill
	case PartialChipkillSECDED, WholeSECDED:
		return ecc.SECDED
	default:
		return ecc.None
	}
}

// Partial reports whether the strategy relaxes ECC on ABFT data relative to
// the rest of the node.
func (s Strategy) Partial() bool {
	return s == PartialChipkillNoECC || s == PartialSECDEDNoECC || s == PartialChipkillSECDED
}

// Runtime couples one simulated node with the coordination machinery.
type Runtime struct {
	Strategy Strategy
	M        *machine.Machine
	Injector *bifit.Injector
}

// NewRuntime builds a node configured for the strategy on the timed
// platform (machine.New), which the paper's evaluation measures.
func NewRuntime(cfg machine.Config, s Strategy, seed int64) *Runtime {
	cfg.DefaultScheme = s.DefaultScheme()
	return bind(machine.New(cfg), s, seed)
}

// NewFunctionalRuntime builds the same node on the functional platform
// (machine.NewFunctional): identical ECC, OS and injection behaviour under
// the flush-after-inject contract, without the cache/DRAM timing model.
// Request serving runs here.
func NewFunctionalRuntime(cfg machine.Config, s Strategy, seed int64) *Runtime {
	cfg.DefaultScheme = s.DefaultScheme()
	return bind(machine.NewFunctional(cfg), s, seed)
}

func bind(m *machine.Machine, s Strategy, seed int64) *Runtime {
	rt := &Runtime{Strategy: s, M: m, Injector: bifit.New(m.OS, seed)}
	rt.Injector.InstallRepairHandler(m.Ctl)
	return rt
}

// Env returns the kernel environment implementing the §3.2 coordination:
// ABFT allocations go through malloc_ecc with the relaxed scheme, the
// notifier drains the OS's shared corruption list, and ABFT repairs clear
// residual fault state.
func (rt *Runtime) Env() abft.Env {
	return abft.Env{
		Mem:   rt.M.Memory(),
		Alloc: rt.alloc,
		Notify: func() []abft.Notification {
			pend := rt.M.OS.PendingCorruptions()
			out := make([]abft.Notification, len(pend))
			for i, p := range pend {
				out[i] = abft.Notification{VirtAddr: p.VirtAddr}
			}
			return out
		},
		OnCorrected: func(addr uint64) {
			// ABFT rewrote the data: drop the line's residual pattern.
			_ = rt.M.OS.ClearFaultAt(addr)
		},
	}
}

func (rt *Runtime) alloc(name string, n int, abftProtected bool) trace.Region {
	size := uint64(n) * 8
	if abftProtected {
		a, err := rt.M.OS.MallocECC(name, size, rt.Strategy.ABFTScheme(), true)
		if err == nil {
			return a.Region
		}
		// Out of ECC registers: fall back to default protection (the data
		// stays ABFT-protected algorithmically, just not relaxed).
	}
	return rt.M.OS.Malloc(name, size).Region
}

// RegisterTarget makes a kernel data structure injectable and repairable.
func (rt *Runtime) RegisterTarget(data []float64, reg trace.Region) {
	rt.Injector.Register(bifit.Target{Data: data, Reg: reg})
}

// NewDGEMM builds an FT-DGEMM wired to this runtime (targets registered).
func (rt *Runtime) NewDGEMM(n int, seed uint64) (*abft.DGEMM, error) {
	d, err := abft.NewDGEMM(rt.Env(), n, seed)
	if err != nil {
		return nil, err
	}
	rt.RegisterTarget(d.Ac.Data, d.Ac.Reg)
	rt.RegisterTarget(d.Br.Data, d.Br.Reg)
	rt.RegisterTarget(d.Cf.Data, d.Cf.Reg)
	return d, nil
}

// NewCholesky builds an FT-Cholesky wired to this runtime.
func (rt *Runtime) NewCholesky(n int, seed uint64) *abft.Cholesky {
	c := abft.NewCholesky(rt.Env(), n, seed)
	rt.RegisterTarget(c.A.Data, c.A.Reg)
	return c
}

// NewCG builds an FT-CG wired to this runtime.
func (rt *Runtime) NewCG(nx, ny int, seed uint64) *abft.CG {
	c := abft.NewCG(rt.Env(), nx, ny, seed)
	for _, name := range []string{"r", "p", "q", "x", "b", "z"} {
		if v, ok := c.VecFor(name); ok {
			rt.RegisterTarget(v.Data, v.Reg)
		}
	}
	return c
}

// NewLU builds a fail-continue FT-LU wired to this runtime.
func (rt *Runtime) NewLU(n int, seed uint64) *abft.LU {
	l := abft.NewLU(rt.Env(), n, seed)
	rt.RegisterTarget(l.Af.Data, l.Af.Reg)
	return l
}

// NewQR builds a fail-continue FT-QR wired to this runtime.
func (rt *Runtime) NewQR(n int, seed uint64) *abft.QR {
	q := abft.NewQR(rt.Env(), n, seed)
	rt.RegisterTarget(q.Af.Data, q.Af.Reg)
	rt.RegisterTarget(q.Vf.Data, q.Vf.Reg)
	return q
}

// NewHPL builds an FT-HPL wired to this runtime.
func (rt *Runtime) NewHPL(n, nb int, seed uint64) (*abft.HPL, error) {
	h, err := abft.NewHPL(rt.Env(), n, nb, seed)
	if err != nil {
		return nil, err
	}
	rt.RegisterTarget(h.A.Data, h.A.Reg)
	rt.RegisterTarget(h.T.Data, h.T.Reg)
	return h, nil
}

// Finish closes out the run and returns platform metrics.
func (rt *Runtime) Finish() machine.Result { return rt.M.Finish() }
