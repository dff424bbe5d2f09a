package soak

import (
	"context"
	"fmt"
	"testing"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
)

// platformRun is the part of one cell's run that must not depend on the
// platform: every recovery.Report field the ladder decides, plus the answer
// signature of a non-aborted run.
type platformRun struct {
	Outcome                             recovery.Outcome
	Injected                            int
	HWCorrected, Notified, OSPanics     uint64
	Corrections, Degradations, Restarts int
	Case3, Case4, StepsLost             int
	AnswerSig                           string
}

func runOnPlatform(cfg Config, newRuntime runtimeFunc, i int) platformRun {
	kernel, strat, kind, count := cfg.cell(i)
	rep, w := runOne(cfg, newRuntime, kernel, strat, kind, count, campaign.CellSeed(cfg.Seed, uint64(i)))
	r := platformRun{
		Outcome: rep.Outcome, Injected: rep.Injected,
		HWCorrected: rep.HWCorrected, Notified: rep.Notified, OSPanics: rep.OSPanics,
		Corrections: rep.Corrections, Degradations: rep.Degradations, Restarts: rep.Restarts,
		Case3: rep.Case3, Case4: rep.Case4, StepsLost: rep.StepsLost,
	}
	if aw, ok := w.(recovery.Answerer); ok && rep.Outcome != recovery.Aborted {
		r.AnswerSig = abft.AnswerSig(aw.AnswerData()...)
	}
	return r
}

// TestSoakTimedMatchesFunctional is the differential gate between the two
// platforms: every soak cell runs on the timed platform (cache/DRAM model,
// ECC decode on LLC demand misses) and on the functional one (decode on the
// first touch since the last flush), and every ladder decision and every
// delivered answer must be identical. The full run covers the Default grid
// in notified and fused DGEMM modes, at soak sizes and at serving sizes,
// for two campaign seeds (1,728 cells, ~75 s under -race on two CPUs);
// -short runs the Short grid in both modes for one seed.
func TestSoakTimedMatchesFunctional(t *testing.T) {
	type grid struct {
		name string
		cfg  Config
	}
	var grids []grid
	base, seeds := Default(), []uint64{1, 42}
	if testing.Short() {
		base, seeds = Short(), seeds[:1]
	}
	for _, mode := range []abft.VerifyMode{abft.NotifiedVerify, abft.FusedVerify} {
		for _, seed := range seeds {
			cfg := base
			cfg.Seed = seed
			cfg.DGEMMMode = mode
			grids = append(grids, grid{fmt.Sprintf("soak/%v/seed%d", mode, seed), cfg})
			if testing.Short() {
				continue
			}
			serving := cfg
			serving.DGEMMN, serving.CholN, serving.CGX, serving.CGY = 48, 48, 8, 8
			grids = append(grids, grid{fmt.Sprintf("serving/%v/seed%d", mode, seed), serving})
		}
	}

	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			cfg := g.cfg
			cfg.defaults()
			prev := mat.SetParallelism(cfg.Parallelism)
			defer mat.SetParallelism(prev)
			type pair struct{ timed, functional platformRun }
			eng := campaign.New(campaign.WithWorkers(2))
			runs, _, err := campaign.Map(context.Background(), eng, cfg.Cells(), func(_ context.Context, i int) (pair, error) {
				return pair{
					timed:      runOnPlatform(cfg, core.NewRuntime, i),
					functional: runOnPlatform(cfg, core.NewFunctionalRuntime, i),
				}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var corrected, notified, panics bool
			for i, p := range runs {
				if p.timed != p.functional {
					kernel, strat, kind, count := cfg.cell(i)
					t.Errorf("cell %d (%v/%v/%v/%d):\n  timed      %+v\n  functional %+v",
						i, kernel, strat, kind, count, p.timed, p.functional)
				}
				corrected = corrected || p.timed.HWCorrected > 0
				notified = notified || p.timed.Notified > 0
				panics = panics || p.timed.OSPanics > 0
			}
			// The grid must reach every decode outcome, or agreement
			// would prove little: hardware correction (Case 1), OS
			// notification (Case 2) and panic mode (Case 4).
			if !corrected || !notified || !panics {
				t.Errorf("grid missed a decode path: hw-corrected %v, notified %v, os-panic %v",
					corrected, notified, panics)
			}
		})
	}
}
