package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
	"coopabft/internal/serve"
)

// probes hands the traced run the workload's running system, so the layer
// probes measure the same instances the traffic used. Nil fields make the
// ledger start its own.
type probes struct {
	daemon  *daemon
	cluster *clusterSUT
	mix     mixFunc // the workload's request mix; nil for paper-eval
}

// tracedTraffic runs the workload's open loop twice for a quarter of the
// run each, first untraced, then with a span around every client call. The
// difference between the two medians is the tracing overhead.
func (r *run) tracedTraffic(ctx context.Context, rate float64, do opFunc) error {
	plain := openLoop(ctx, rate, r.phase(0.25), r.nproc, do)
	traced := openLoop(ctx, rate, r.phase(0.25), r.nproc, func(ctx context.Context, i int) outcome {
		var o outcome
		r.tr.span("client.http", fmt.Sprintf("req-%d", i), 0, func(int) { o = do(ctx, i) })
		return o
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	r.count(len(plain.samples)+len(traced.samples), failures(plain.samples)+failures(traced.samples))
	r.overhead(median(latencies(plain.samples)), median(latencies(traced.samples)))
	r.trafficLayer(traced)
	return nil
}

func (r *run) overhead(plainMS, tracedMS float64) {
	r.set("trace.overhead_pct", "%", 100*(tracedMS-plainMS)/plainMS)
}

func (r *run) has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.metrics[name]
	return ok
}

// trafficLayer reads the serving layers' own timings off the responses of
// an open-loop phase.
func (r *run) trafficLayer(o openResult) {
	var queue, runMS []float64
	batched, rejected, retried, viaGateway := 0, 0, 0, 0
	for _, s := range o.samples {
		if s.fail == "rejected" || s.fail == "unavailable" {
			rejected++
		}
		resp := s.resp
		if !s.ok {
			continue
		}
		queue = append(queue, resp.QueueMS)
		runMS = append(runMS, resp.RunMS)
		if resp.BatchSize > 1 {
			batched++
		}
		if resp.Node != "" {
			viaGateway++
			if resp.GatewayRetries > 0 {
				retried++
			}
		}
	}
	n := float64(len(queue))
	r.set("serve.queue_ms", "ms", median(queue))
	r.set("serve.run_ms", "ms", median(runMS))
	r.set("serve.batched_share", "share", float64(batched)/n)
	r.set("serve.rejected_share", "share", float64(rejected)/float64(len(o.samples)))
	r.set("loadgen.late_p99_ms", "ms", quantile(o.lateMS, 0.99))
	if viaGateway > 0 {
		r.set("cluster.retries_share", "share", float64(retried)/float64(viaGateway))
	}
}

// tracedRegens is paper-eval's traced run: one plain and one traced
// regeneration of the figure set, then the layer ledger.
func (r *run) tracedRegens(ctx context.Context, golden string) error {
	plain, _, err := r.regenerate(ctx, nil, golden, "")
	if err != nil {
		return err
	}
	traced, log, err := r.regenerate(ctx, r.tr, golden, "regen")
	if err != nil {
		return err
	}
	cells := len(log.cells())
	r.count(2*cells, 0)
	r.overhead(ms(plain), ms(traced))
	r.setHarness(traced.Seconds(), log)
	return r.ledger(ctx, probes{})
}

func (r *run) setHarness(seconds float64, log *cellLog) {
	r.set("experiments.harness_s", "s", seconds)
	r.set("campaign.cells_per_s", "1/s", log.last().CellsPerSec)
}

// ledger replays samples of requests through each module's public calls
// and sets every per-layer metric.
func (r *run) ledger(ctx context.Context, p probes) error {
	steps := []func(context.Context, probes) error{
		r.f64Chain, r.f32Chain, r.kernelProbes, r.serveProbe, r.clusterProbe, r.harnessProbe,
	}
	for _, step := range steps {
		if err := step(ctx, p); err != nil {
			return err
		}
	}
	r.tr.mu.Lock()
	n := len(r.tr.spans)
	r.tr.mu.Unlock()
	r.set("trace.spans", "count", float64(n))
	return nil
}

// injectionPlan is the daemon's fault schedule for a request, derived from
// its seed the same way, so the replay injects the same faults.
func injectionPlan(p serve.Parsed, w recovery.Workload) []recovery.Injection {
	if p.Faults <= 0 {
		return nil
	}
	targets := w.InjectTargets()
	steps := w.Steps()
	st := p.Seed
	next := func() uint64 { st++; return campaign.Splitmix64(st) }
	plan := make([]recovery.Injection, 0, p.Faults)
	for e := 0; e < p.Faults; e++ {
		ti := int(next() % uint64(len(targets)))
		plan = append(plan, recovery.Injection{
			Tick:   int(next() % uint64(steps)),
			Kind:   p.Kind,
			Target: ti,
			Elem:   int(next() % uint64(len(targets[ti].T.Data))),
		})
	}
	return plan
}

const ledgerSample = 40

// f64Chain replays a seeded sample of the serve-small mix, the workload
// that owns the timed platform and the recovery ladder, through the public
// calls in request order: core.NewRuntime, recovery.New*Workload,
// Coordinator.Run, a second Check, the same problem on abft.Standalone(),
// and the bare mat kernel.
func (r *run) f64Chain(ctx context.Context, _ probes) error {
	limits := serve.Limits{MaxN: 192, MaxFaults: 8}
	restarts, degradations, lost, steps, reqs, aborted := 0, 0, 0, 0, 0, 0
	for i := 0; i < ledgerSample; i++ {
		_, req := serveSmallMix(r.seed, 1_000_000+i)
		p, err := serve.ParseRequest(limits, req)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("f64-%d", i)
		k := p.Kernel.String()
		var chainErr error
		r.tr.span("bench.request", id, 0, func(root int) {
			var rt *core.Runtime
			r.tr.span("machine.new_runtime", id, root, func(int) {
				rt = core.NewRuntime(machine.ScaledConfig(32), p.Strategy, int64(p.Seed))
			})
			var w recovery.Workload
			r.tr.span("recovery.new_workload", id, root, func(int) {
				switch p.Kernel {
				case serve.KernelCholesky:
					w, chainErr = recovery.NewCholeskyWorkload(rt, p.N, p.Seed)
				case serve.KernelCG:
					w, chainErr = recovery.NewCGWorkload(rt, p.NX, p.NY, p.Seed)
				default:
					w, chainErr = recovery.NewDGEMMWorkload(rt, p.N, p.Seed, p.Mode)
				}
			})
			if chainErr != nil {
				return
			}
			var rep recovery.Report
			r.tr.span("recovery.run."+k, id, root, func(int) {
				rep = (&recovery.Coordinator{RT: rt, W: w, Plan: injectionPlan(p, w), MaxRestarts: 3, Ctx: ctx}).Run()
			})
			if rep.Outcome == recovery.Aborted {
				aborted++ // a classified refusal: counted as failed, no answer to check
				return
			}
			restarts += rep.Restarts
			degradations += rep.Degradations
			lost += rep.StepsLost
			steps += w.Steps()
			reqs++
			r.tr.span("abft.check."+k, id, root, func(int) {
				if err := w.Check(); err != nil {
					r.wrongAnswer(fmt.Errorf("%s: second check after a classified run: %v", id, err))
				}
			})
			r.tr.span("abft.standalone."+k, id, root, func(int) { chainErr = standalone(p) })
			if chainErr != nil {
				return
			}
			if p.Kernel == serve.KernelGEMM {
				// The same FT-DGEMM on the timed platform, without the ladder:
				// its excess over the standalone run is the simulator's cost.
				rt2 := core.NewRuntime(machine.ScaledConfig(32), p.Strategy, int64(p.Seed))
				r.tr.span("machine.dgemm_sim", id, root, func(int) {
					d, err := abft.NewDGEMM(rt2.Env(), p.N, p.Seed)
					if err == nil {
						d.Block, d.Mode = 16, p.Mode
						err = d.Run()
					}
					chainErr = err
				})
			}
			bareKernel(r.tr, id, root, p)
		})
		if chainErr != nil {
			return chainErr
		}
	}
	r.count(ledgerSample, aborted)

	sim := r.tr.p50("machine.dgemm_sim")
	alone := r.tr.p50("abft.standalone.gemm")
	ladder := r.tr.p50("recovery.run.gemm")
	r.set("machine.setup_ms", "ms", r.tr.p50("machine.new_runtime"))
	r.set("machine.sim_ms", "ms", sim-alone)
	r.set("machine.sim_share", "share", (sim-alone)/sim)
	r.set("abft.dgemm_ms", "ms", alone)
	r.set("abft.oracle_ms", "ms", r.tr.p50("abft.check.gemm"))
	r.set("abft.oracle_share", "share", r.tr.p50("abft.check.gemm")/ladder)
	r.set("recovery.run_ms", "ms", ladder)
	r.set("recovery.run_ms.cholesky", "ms", r.tr.p50("recovery.run.cholesky"))
	r.set("recovery.run_ms.cg", "ms", r.tr.p50("recovery.run.cg"))
	r.set("recovery.restarts_per_req", "count", float64(restarts)/float64(reqs))
	r.set("recovery.steps_lost_share", "share", float64(lost)/float64(steps))
	r.set("recovery.degradations", "count", float64(degradations)/float64(reqs))
	return nil
}

// standalone runs the request's kernel on abft.Standalone(): the same ABFT
// algorithm with no simulated platform under it, and no faults.
func standalone(p serve.Parsed) error {
	env := abft.Standalone()
	switch p.Kernel {
	case serve.KernelCholesky:
		c := abft.NewCholesky(env, p.N, p.Seed)
		c.Mode = abft.NotifiedVerify
		return c.Run()
	case serve.KernelCG:
		c := abft.NewCG(env, p.NX, p.NY, p.Seed)
		c.Mode = abft.NotifiedVerify
		c.RelTol = 1e-9
		_, err := c.Run()
		return err
	default:
		d, err := abft.NewDGEMM(env, p.N, p.Seed)
		if err != nil {
			return err
		}
		d.Block, d.Mode = 16, p.Mode
		return d.Run()
	}
}

// bareKernel times the unprotected mat kernel on the request's problem.
func bareKernel(tr *tracer, id string, parent int, p serve.Parsed) {
	name := "mat.kernel." + p.Kernel.String()
	switch p.Kernel {
	case serve.KernelCholesky:
		a := mat.SymmetricPositiveDefinite(p.N, p.Seed)
		tr.span(name, id, parent, func(int) { _ = mat.Cholesky(a) }) // SPD by construction
	case serve.KernelCG:
		poisson := mat.Poisson2D(p.NX, p.NY)
		a := poisson.Dense()
		b := make([]float64, poisson.N)
		poisson.MulVecInto(b, mat.RandomVec(poisson.N, p.Seed))
		tr.span(name, id, parent, func(int) { _, _ = mat.CG(a, b, 1e-9, 20*(p.NX+p.NY)) })
	default:
		a, b, c := mat.Random(p.N, p.N, p.Seed), mat.Random(p.N, p.N, p.Seed+1), mat.New(p.N, p.N)
		tr.span(name, id, parent, func(int) { mat.MulAddInto(c, a, b) })
	}
}

// f32Chain replays clean and faulted requests of the serve-f32 mix through
// GEMM32 (with the daemon's restart rule), its oracle, and the bare f32
// kernel.
func (r *run) f32Chain(ctx context.Context, _ probes) error {
	clean, faulty := 0, 0
	for i := 0; clean+faulty < 12; i++ {
		class, req := serveF32Mix(r.seed, 2_000_000+i)
		label := "clean"
		if req.Faults > 0 {
			label = "faulted"
			if faulty == 6 {
				continue
			}
			faulty++
		} else {
			if clean == 6 {
				continue
			}
			clean++
		}
		id := fmt.Sprintf("f32-%d", i)
		var err error
		r.tr.span("bench.request", id, 0, func(root int) {
			var g *abft.GEMM32
			r.tr.span("abft.gemm32."+label, id, root, func(int) { g, err = runGEMM32(req.N, req.Seed, req.Faults) })
			if err != nil {
				return
			}
			r.tr.span("abft.gemm32_oracle", id, root, func(int) {
				if cerr := oracle32(g, req.N, req.Seed); cerr != nil {
					r.wrongAnswer(fmt.Errorf("%s (%s): %v", id, class, cerr))
				}
			})
			a, b, c := mat.Random32(req.N, req.N, req.Seed), mat.Random32(req.N, req.N, req.Seed+1), mat.New32(req.N, req.N)
			r.tr.span("mat.kernel32", id, root, func(int) { mat.MulAddInto32(c, a, b) })
		})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	r.count(12, 0)
	bare := r.tr.p50("mat.kernel32")
	r.set("abft.gemm32_ms", "ms", r.tr.p50("abft.gemm32.clean"))
	r.set("abft.gemm32_overhead_x", "x", r.tr.p50("abft.gemm32.clean")/bare)
	r.set("abft.gemm32_faulted_overhead_x", "x", r.tr.p50("abft.gemm32.faulted")/bare)
	return nil
}

// runGEMM32 runs one f32 request the way the daemon does: faults strike the
// first incarnation only, and an uncorrectable fault rebuilds and restarts.
func runGEMM32(n int, seed uint64, faults int) (*abft.GEMM32, error) {
	for restarts := 0; restarts <= 3; restarts++ {
		g, err := abft.NewGEMM32(n, seed)
		if err != nil {
			return nil, err
		}
		if restarts == 0 && faults > 0 {
			armFlips(g, seed, faults)
		}
		err = g.Run()
		if err == nil {
			return g, nil
		}
		if !errors.Is(err, abft.ErrUncorrectable) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("f32 seed %d: restart budget exhausted", seed)
}

// oracle32 checks a GEMM32 product against float64 A·B from pristine
// operands rebuilt from the seed (an operand flip the kernel never read
// leaves the product right and the run's own operands wrong), under the
// kernel's adaptive per-element bound.
func oracle32(g *abft.GEMM32, n int, seed uint64) error {
	ref := mat.New(n, n)
	mat.MulAddInto(ref, mat.Random32(n, n, seed).To64(), mat.Random32(n, n, seed+1).To64())
	am, bm := g.OperandMoments()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got, want := float64(g.C.At(i, j)), ref.At(i, j)
			if math.Abs(got-want) > abft.ElementBound32(g.K, want, am, bm) {
				return fmt.Errorf("f32 product at (%d,%d): got %g want %g", i, j, got, want)
			}
		}
	}
	return nil
}

// armFlips installs the daemon's f32 bit-flip schedule for a request seed:
// the top exponent bit of one element of C, A or B at the top of a panel.
func armFlips(g *abft.GEMM32, seed uint64, faults int) {
	type flip struct{ panel, target, idx int }
	st := seed
	next := func() uint64 { st++; return campaign.Splitmix64(st) }
	var plan []flip
	for e := 0; e < faults; e++ {
		f := flip{panel: int(next() % uint64(g.Panels()))}
		f.target = int(next() % 4)
		switch f.target {
		case 2:
			f.idx = int(next() % uint64(len(g.A.Data)))
		case 3:
			f.idx = int(next() % uint64(len(g.B.Data)))
		default:
			f.idx = int(next() % uint64(len(g.C.Data)))
		}
		plan = append(plan, f)
	}
	g.OnPanel = func(panel int) {
		for _, f := range plan {
			if f.panel != panel {
				continue
			}
			d := g.C.Data
			if f.target == 2 {
				d = g.A.Data
			} else if f.target == 3 {
				d = g.B.Data
			}
			d[f.idx] = math.Float32frombits(math.Float32bits(d[f.idx]) ^ (1 << 30))
		}
	}
}

// kernelProbes times the mat kernels at the serving and job shapes, the
// cheap abft passes, and the simulator's per-line touch.
func (r *run) kernelProbes(ctx context.Context, _ probes) error {
	tr := r.tr
	gflops := func(name string, flops float64, reps int, fn func()) float64 {
		for i := 0; i < reps; i++ {
			tr.span(name, "kernels", 0, func(int) { fn() })
		}
		return flops / tr.p50(name) / 1e6
	}
	a, b, c := mat.Random(192, 192, r.seed), mat.Random(192, 192, r.seed+1), mat.New(192, 192)
	r.set("mat.gemm_gflops", "GFLOP/s", gflops("mat.gemm.n192", 2*192*192*192, 7, func() { mat.MulAddInto(c, a, b) }))
	ja, jb, jc := mat.Random(jobN, jobN, r.seed), mat.Random(jobN, jobN, r.seed+1), mat.New(jobN/2, jobN/2)
	r.set("mat.gemm_block_gflops", "GFLOP/s", gflops("mat.gemm.block", 2*jobN/2*jobN*jobN/2, 5, func() {
		mat.MulAddInto(jc, ja.View(0, 0, jobN/2, jobN), jb.View(0, 0, jobN, jobN/2))
	}))
	a32, b32, c32 := mat.Random32(192, 192, r.seed), mat.Random32(192, 192, r.seed+1), mat.New32(192, 192)
	r.set("mat.gemm32_gflops", "GFLOP/s", gflops("mat.gemm32.n192", 2*192*192*192, 7, func() { mat.MulAddInto32(c32, a32, b32) }))

	s, t, u := mat.Random(48, 48, r.seed), mat.Random(48, 48, r.seed+1), mat.New(48, 48)
	fs := &mat.FusedSums{RowSums: make([]float64, 48), ColSums: make([]float64, 48), ASums: make([]float64, 48), BSums: make([]float64, 48)}
	for i := 0; i < 60; i++ {
		tr.span("mat.gemm.n48", "kernels", 0, func(int) { mat.MulAddInto(u, s, t) })
		tr.span("mat.gemm_fused.n48", "kernels", 0, func(int) { mat.MulAddIntoFused(u, s, t, fs) })
	}
	plain := tr.p50("mat.gemm.n48")
	r.set("mat.fused_overhead_pct", "%", 100*(tr.p50("mat.gemm_fused.n48")-plain)/plain)

	prod := mat.Mul(s, t)
	for i := 0; i < 30; i++ {
		tr.span("abft.check_product", "kernels", 0, func(int) {
			if err := abft.CheckProduct(s, t, prod, r.seed, abft.BlockTol(48)); err != nil {
				r.wrongAnswer(fmt.Errorf("check product on an honest product: %v", err))
			}
		})
	}
	r.set("abft.check_product_ms", "ms", tr.p50("abft.check_product"))
	blk := mat.Random(jobN/2, jobN/2, r.seed)
	for i := 0; i < 10; i++ {
		tr.span("abft.block_pack", "kernels", 0, func(int) {
			if _, err := abft.UnpackBlock(blk.Rows, blk.Cols, abft.PackBlock(blk)); err != nil {
				r.wrongAnswer(err)
			}
		})
	}
	r.set("abft.block_pack_ms", "ms", tr.p50("abft.block_pack"))

	rt := core.NewRuntime(machine.ScaledConfig(32), core.WholeChipkill, int64(r.seed))
	const touchBytes = 4 << 20
	reg := rt.M.OS.Malloc("perfbench.touch", touchBytes).Region
	mem := rt.M.Memory()
	for pass := 0; pass < 3; pass++ {
		tr.span("machine.touch", "kernels", 0, func(int) {
			for off := uint64(0); off < touchBytes; off += 64 {
				mem.Touch(reg.Base+off, 64, false)
			}
		})
	}
	r.set("machine.touch_ns", "ns", tr.p50("machine.touch")*1e6/(touchBytes/64))
	return ctx.Err()
}

// serveProbe sends the same requests in process (Service.Do) and over HTTP
// to one daemon, one at a time; the HTTP hop is the difference of the two
// medians. A workload without serving traffic also gets a short open loop
// here, for the response-derived serving metrics.
func (r *run) serveProbe(ctx context.Context, p probes) error {
	d := p.daemon
	if d == nil {
		var err error
		if d, err = startDaemon(daemonConfig()); err != nil {
			return err
		}
		defer d.close()
	}
	mix := p.mix
	if mix == nil {
		mix = serveSmallMix
	}
	c := newClient(r.nproc)
	defer c.close()
	for i := 0; i < ledgerSample; i++ {
		class, req := mix(r.seed, 3_000_000+i)
		id := fmt.Sprintf("serve-%d", i)
		var err error
		r.tr.span("serve.do", id, 0, func(int) { _, err = d.svc.Do(ctx, req) })
		if err != nil {
			return fmt.Errorf("%s in process: %w", id, err)
		}
		var o outcome
		r.tr.span("serve.http", id, 0, func(int) { o = c.call(ctx, d.l.url, class, req, r.wrongAnswer) })
		if !o.ok {
			return fmt.Errorf("%s over HTTP: %s", id, o.fail)
		}
	}
	r.count(2*ledgerSample, 0)
	r.set("serve.do_ms", "ms", r.tr.p50("serve.do"))
	r.set("serve.http_hop_ms", "ms", r.tr.p50("serve.http")-r.tr.p50("serve.do"))
	if r.has("serve.queue_ms") {
		return nil
	}
	o := openLoop(ctx, serveSmall.rate, r.phase(0.15), r.nproc, func(ctx context.Context, i int) outcome {
		class, req := serveSmallMix(r.seed, 4_000_000+i)
		var o outcome
		r.tr.span("client.http", fmt.Sprintf("probe-%d", i), 0, func(int) { o = c.call(ctx, d.l.url, class, req, r.wrongAnswer) })
		return o
	})
	r.count(len(o.samples), failures(o.samples))
	r.trafficLayer(o)
	return ctx.Err()
}

// clusterProbe times the same gemm through the gateway and straight to a
// worker, with and without integrity voting, plus one block task and
// sharded jobs against a one-node recompute.
func (r *run) clusterProbe(ctx context.Context, p probes) error {
	c := newClient(r.nproc)
	defer c.close()
	cs := p.cluster
	if cs == nil {
		var err error
		if cs, err = startClusterReady(ctx, c, r); err != nil {
			return err
		}
		defer cs.close()
	}
	var viaGW []serve.Response
	for i := 0; i < 25; i++ {
		_, req := clusterMix(r.seed, 5_000_000+i)
		req.Integrity = ""
		id := fmt.Sprintf("cluster-%d", i)
		for _, leg := range []struct{ name, base, integrity string }{
			{"cluster.gateway", cs.l.url, ""},
			{"cluster.direct", cs.workers[i%len(cs.workers)].l.url, ""},
			{"cluster.vote", cs.l.url, "vote"},
			{"cluster.verify_vote", cs.l.url, "verify-vote"},
		} {
			req.Integrity = leg.integrity
			var o outcome
			r.tr.span(leg.name, id, 0, func(int) { o = c.call(ctx, leg.base, leg.name, req, r.wrongAnswer) })
			if !o.ok {
				return fmt.Errorf("%s %s: %s", id, leg.name, o.fail)
			}
			if leg.base == cs.l.url {
				viaGW = append(viaGW, o.resp)
			}
		}
	}
	r.count(100, 0)
	gw := r.tr.p50("cluster.gateway")
	r.set("cluster.hop_ms", "ms", gw-r.tr.p50("cluster.direct"))
	r.set("cluster.vote_x", "x", r.tr.p50("cluster.vote")/gw)
	r.set("cluster.verify_vote_x", "x", r.tr.p50("cluster.verify_vote")/gw)
	if !r.has("cluster.retries_share") {
		retried := 0
		for _, resp := range viaGW {
			if resp.GatewayRetries > 0 {
				retried++
			}
		}
		r.set("cluster.retries_share", "share", float64(retried)/float64(len(viaGW)))
	}

	grid, err := abft.NewBlockGrid(jobN, 2, 2)
	if err != nil {
		return err
	}
	task := serve.BlockTask{JobID: "probe", Kernel: "gemm", N: jobN, Seed: r.seed, Role: serve.BlockData,
		RowSplits: grid.RowSplits, ColSplits: grid.ColSplits}
	for i := 0; i < 3; i++ {
		r.tr.span("serve.do_block", "job-block", 0, func(int) { _, err = cs.workers[0].svc.DoBlock(ctx, task) })
		if err != nil {
			return fmt.Errorf("block task: %w", err)
		}
	}
	r.set("cluster.job_block_ms", "ms", r.tr.p50("serve.do_block"))
	for i := 0; i < 2; i++ {
		seed := campaign.Splitmix64(r.seed ^ uint64(i) ^ 0x10b)
		id := fmt.Sprintf("job-%d", i)
		var js jobSample
		r.tr.span("cluster.job", id, 0, func(int) { js = runJob(ctx, c, cs.l.url, seed) })
		if !js.ok {
			return fmt.Errorf("%s failed", id)
		}
		var want string
		r.tr.span("mat.kernel_job", id, 0, func(int) { want = jobDigest(jobN, seed) })
		if want != js.digest {
			r.wrongAnswer(fmt.Errorf("job n=%d seed %d: digest %s, local recompute %s", jobN, seed, js.digest, want))
		}
	}
	r.count(2, 0)
	r.set("cluster.job_overhead_x", "x", r.tr.p50("cluster.job")/r.tr.p50("mat.kernel_job"))
	return ctx.Err()
}

// harnessProbe regenerates the figure set once, traced, for workloads
// whose own traffic did not.
func (r *run) harnessProbe(ctx context.Context, _ probes) error {
	if r.has("experiments.harness_s") {
		return nil
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		return fmt.Errorf("golden output: %w", err)
	}
	d, log, err := r.regenerate(ctx, r.tr, string(raw), "regen")
	if err != nil {
		return err
	}
	r.count(len(log.cells()), 0)
	r.setHarness(d.Seconds(), log)
	return nil
}
