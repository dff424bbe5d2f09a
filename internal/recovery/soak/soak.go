// Package soak is the chaos harness over the recovery ladder: randomized,
// seed-deterministic multi-error campaigns that inject faults mid-run —
// while the kernels' packed parallel updates are live — sweeping error
// kind × count × timing × ECC scheme × kernel, and asserting that every run
// terminates in a verified-correct result or an explicit Aborted outcome.
// No wrong answers, no panics, no hangs: panics are caught and counted,
// hangs are cut by per-run deadlines, and the same seed always reproduces
// the same outcome table.
package soak

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
)

// Kernel selects a workload for the sweep.
type Kernel int

const (
	// KDGEMM is FT-DGEMM with rank-16 panels (parallel above n≈80).
	KDGEMM Kernel = iota
	// KCholesky is FT-Cholesky (parallel trailing updates above n≈96); its
	// unprotected workspace feeds Case 4.
	KCholesky
	// KCG is FT-CG, the memory-bound invariant-checked workload.
	KCG
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KDGEMM:
		return "dgemm"
	case KCholesky:
		return "cholesky"
	case KCG:
		return "cg"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Config describes one soak campaign. The cell grid is the cross product
// kernels × strategies × kinds × counts; every cell is one coordinated run
// seeded from (Seed, cell index), so the whole campaign is reproducible.
type Config struct {
	Seed    uint64
	Workers int // campaign fan-out (default 1)
	// Parallelism is the mat worker count active during runs (default 4),
	// so panel and trailing updates execute on parallel row bands while
	// faults land at step boundaries.
	Parallelism int
	// Deadline bounds one run's wall clock (default 30s); a run that
	// exceeds it is recorded as hung, never waited on.
	Deadline time.Duration

	Kernels    []Kernel
	Strategies []core.Strategy
	Kinds      []bifit.Kind
	Counts     []int // injected errors per run

	// Problem sizes (defaults: DGEMM 80, Cholesky 96, CG 16×16).
	DGEMMN, CholN, CGX, CGY int

	// DGEMMMode selects the DGEMM verify mode for the whole campaign. The
	// zero value is FullVerify; Short/Default use NotifiedVerify (the
	// paper's cooperative path) and the fused soak sweeps FusedVerify.
	DGEMMMode abft.VerifyMode

	MaxRestarts     int // per-run restart budget (default 3)
	CheckpointEvery int // ticks between checkpoints (default 2)
}

// Default returns the acceptance sweep: all kernels, all six ECC
// strategies, all four error kinds, three error counts — 216 runs.
func Default() Config {
	return Config{
		Kernels:    []Kernel{KDGEMM, KCholesky, KCG},
		Strategies: core.Strategies,
		Kinds:      []bifit.Kind{bifit.SingleBit, bifit.DoubleBitSameWord, bifit.ChipFailure, bifit.Scattered},
		Counts:     []int{1, 2, 4},
		DGEMMMode:  abft.NotifiedVerify,
	}
}

// Short returns a trimmed grid for quick deterministic checks: two
// parallel kernels, three strategies, all four kinds, one count — 24 runs.
func Short() Config {
	return Config{
		Kernels:    []Kernel{KDGEMM, KCholesky},
		Strategies: []core.Strategy{core.WholeChipkill, core.PartialChipkillSECDED, core.NoECC},
		Kinds:      []bifit.Kind{bifit.SingleBit, bifit.DoubleBitSameWord, bifit.ChipFailure, bifit.Scattered},
		Counts:     []int{2},
		DGEMMMode:  abft.NotifiedVerify,
	}
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.DGEMMN <= 0 {
		c.DGEMMN = 80
	}
	if c.CholN <= 0 {
		c.CholN = 96
	}
	if c.CGX <= 0 {
		c.CGX = 16
	}
	if c.CGY <= 0 {
		c.CGY = 16
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2
	}
}

// Cells returns the run count of the sweep.
func (c Config) Cells() int {
	return len(c.Kernels) * len(c.Strategies) * len(c.Kinds) * len(c.Counts)
}

// RunResult is one cell's outcome.
type RunResult struct {
	Cell     int
	Kernel   Kernel
	Strategy core.Strategy
	Kind     bifit.Kind
	Count    int

	Report recovery.Report
	// Panicked/Hung record harness-level failures; both must stay zero.
	Panicked bool
	PanicMsg string
	Hung     bool
}

// Result aggregates a campaign.
type Result struct {
	Cfg    Config
	Runs   []RunResult
	Counts map[recovery.Outcome]int
	Panics int
	Hangs  int
}

// Run executes the campaign. The only error source is context
// cancellation — per-run failures are data, not errors.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.defaults()
	prev := mat.SetParallelism(cfg.Parallelism)
	defer mat.SetParallelism(prev)

	eng := campaign.New(campaign.WithWorkers(cfg.Workers))
	runs, _, err := campaign.Map(ctx, eng, cfg.Cells(), func(ctx context.Context, i int) (RunResult, error) {
		if err := ctx.Err(); err != nil {
			return RunResult{}, err
		}
		return runCell(cfg, i), nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Cfg: cfg, Runs: runs, Counts: map[recovery.Outcome]int{}}
	for _, r := range runs {
		switch {
		case r.Panicked:
			res.Panics++
		case r.Hung:
			res.Hangs++
		default:
			res.Counts[r.Report.Outcome]++
		}
	}
	return res, nil
}

// cell decodes index i into its sweep coordinates.
func (c Config) cell(i int) (Kernel, core.Strategy, bifit.Kind, int) {
	ci := i % len(c.Counts)
	i /= len(c.Counts)
	di := i % len(c.Kinds)
	i /= len(c.Kinds)
	si := i % len(c.Strategies)
	i /= len(c.Strategies)
	return c.Kernels[i], c.Strategies[si], c.Kinds[di], c.Counts[ci]
}

// runCell executes one coordinated run under a panic guard and deadline.
func runCell(cfg Config, i int) RunResult {
	kernel, strat, kind, count := cfg.cell(i)
	out := RunResult{Cell: i, Kernel: kernel, Strategy: strat, Kind: kind, Count: count}

	done := make(chan RunResult, 1)
	go func() {
		r := out // goroutine-local copy; published only via the channel
		defer func() {
			if p := recover(); p != nil {
				r.Panicked = true
				r.PanicMsg = fmt.Sprint(p)
			}
			done <- r
		}()
		r.Report, _ = runOne(cfg, core.NewRuntime, kernel, strat, kind, count, campaign.CellSeed(cfg.Seed, uint64(i)))
	}()

	select {
	case r := <-done:
		return r
	case <-time.After(cfg.Deadline):
		out.Hung = true
		return out
	}
}

// runtimeFunc is a core runtime constructor: it picks the platform a cell
// runs on (core.NewRuntime for the timed one).
type runtimeFunc func(machine.Config, core.Strategy, int64) *core.Runtime

// runOne builds runtime + workload + injection plan for one cell and drives
// the coordinator. The workload is returned with the report (nil when
// construction failed) so its answer can be fingerprinted.
func runOne(cfg Config, newRuntime runtimeFunc, kernel Kernel, strat core.Strategy, kind bifit.Kind, count int, seed uint64) (recovery.Report, recovery.Workload) {
	rt := newRuntime(machine.ScaledConfig(32), strat, int64(seed))
	var w recovery.Workload
	var err error
	switch kernel {
	case KCholesky:
		w, err = recovery.NewCholeskyWorkload(rt, cfg.CholN, seed)
	case KCG:
		w, err = recovery.NewCGWorkload(rt, cfg.CGX, cfg.CGY, seed)
	default:
		w, err = recovery.NewDGEMMWorkload(rt, cfg.DGEMMN, seed, cfg.DGEMMMode)
	}
	if err != nil {
		return recovery.Report{Outcome: recovery.Aborted, Err: err}, nil
	}

	// Seed-deterministic plan: error timing, target and element all come
	// from a splitmix stream over the cell seed.
	s := seed
	next := func() uint64 { s++; return campaign.Splitmix64(s) }
	targets := w.InjectTargets()
	steps := w.Steps()
	plan := make([]recovery.Injection, 0, count)
	for e := 0; e < count; e++ {
		ti := int(next() % uint64(len(targets)))
		plan = append(plan, recovery.Injection{
			Tick:   int(next() % uint64(steps)),
			Kind:   kind,
			Target: ti,
			Elem:   int(next() % uint64(len(targets[ti].T.Data))),
		})
	}

	co := &recovery.Coordinator{
		RT:              rt,
		W:               w,
		Plan:            plan,
		CheckpointEvery: cfg.CheckpointEvery,
		MaxRestarts:     cfg.MaxRestarts,
	}
	return co.Run(), w
}

// Table renders the deterministic outcome table: one row per
// (kernel, strategy, kind) aggregated over the error-count axis. Reports
// from the same seed render byte-identically.
func (r *Result) Table() string {
	type key struct {
		k Kernel
		s core.Strategy
		d bifit.Kind
	}
	type agg struct {
		runs, corrected, restarted, aborted, panics, hangs int
		injected, restarts                                 int
	}
	rows := map[key]*agg{}
	var order []key
	for _, run := range r.Runs {
		k := key{run.Kernel, run.Strategy, run.Kind}
		a, ok := rows[k]
		if !ok {
			a = &agg{}
			rows[k] = a
			order = append(order, k)
		}
		a.runs++
		a.injected += run.Report.Injected
		a.restarts += run.Report.Restarts
		switch {
		case run.Panicked:
			a.panics++
		case run.Hung:
			a.hangs++
		case run.Report.Outcome == recovery.Corrected:
			a.corrected++
		case run.Report.Outcome == recovery.Restarted:
			a.restarted++
		default:
			a.aborted++
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].k != order[j].k {
			return order[i].k < order[j].k
		}
		if order[i].s != order[j].s {
			return order[i].s < order[j].s
		}
		return order[i].d < order[j].d
	})

	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %d runs (seed %d)\n", len(r.Runs), r.Cfg.Seed)
	fmt.Fprintf(&b, "%-9s %-12s %-12s %5s %5s %9s %9s %7s %6s %5s\n",
		"kernel", "strategy", "kind", "runs", "inj", "corrected", "restarted", "aborted", "panic", "hang")
	for _, k := range order {
		a := rows[k]
		fmt.Fprintf(&b, "%-9s %-12s %-12s %5d %5d %9d %9d %7d %6d %5d\n",
			k.k, k.s, k.d, a.runs, a.injected, a.corrected, a.restarted, a.aborted, a.panics, a.hangs)
	}
	fmt.Fprintf(&b, "totals: corrected %d, restarted %d, aborted %d, panics %d, hangs %d\n",
		r.Counts[recovery.Corrected], r.Counts[recovery.Restarted], r.Counts[recovery.Aborted],
		r.Panics, r.Hangs)
	return b.String()
}
