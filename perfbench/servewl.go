package main

import (
	"context"
	"fmt"
	"os"

	"coopabft/internal/campaign"
	"coopabft/internal/serve"
)

// mixFunc builds request i of a workload from the run seed. The server
// sees only the generated request; the seed stays in the benchmark.
type mixFunc func(seed uint64, i int) (class string, req serve.Request)

// draw is a uniform [0,1) value for (seed, i, salt).
func draw(seed uint64, i int, salt uint64) float64 {
	x := campaign.Splitmix64(seed ^ campaign.Splitmix64(uint64(i)*0x9e3779b97f4a7c15+salt))
	return float64(x>>11) / (1 << 53)
}

// reqSeed is the data seed of request i.
func reqSeed(seed uint64, i int) uint64 {
	return campaign.Splitmix64(seed ^ campaign.Splitmix64(uint64(i)+0x5bd1e995))
}

// strategies alternates the two ECC strategies the serving mixes use.
func strategy(seed uint64, i int) string {
	if draw(seed, i, 1) < 0.5 {
		return "W_CK"
	}
	return "P_CK+P_SD"
}

// faulted gives every fourth request one injected chip failure. Spacing the
// faults evenly, instead of drawing them, keeps slow faulted requests from
// bunching up differently from one seed to the next.
func faulted(i int, req *serve.Request) string {
	if i%4 == 0 {
		req.Faults = 1
		req.FaultKind = "chip-failure"
		return "+fault"
	}
	return ""
}

// serveSmallMix: f64 gemm n=48 (notified and fused), cholesky n=48 and
// cg 8×8. Gemm holds 65% of the traffic, so the median lands inside the gemm
// classes rather than on a class boundary.
func serveSmallMix(seed uint64, i int) (string, serve.Request) {
	req := serve.Request{Seed: reqSeed(seed, i), Strategy: strategy(seed, i)}
	var class string
	switch u := draw(seed, i, 0); {
	case u < 0.40:
		class, req.Kernel, req.N, req.VerifyMode = "gemm-notified", "gemm", 48, "notified"
	case u < 0.65:
		class, req.Kernel, req.N, req.VerifyMode = "gemm-fused", "gemm", 48, "fused"
	case u < 0.80:
		class, req.Kernel, req.N = "cholesky", "cholesky", 48
	default:
		class, req.Kernel, req.NX, req.NY = "cg", "cg", 8, 8
	}
	return class + faulted(i, &req), req
}

// serveF32Mix: f32 fused gemm at the serving MaxN, a quarter faulted.
func serveF32Mix(seed uint64, i int) (string, serve.Request) {
	req := serve.Request{Kernel: "gemm", N: 192, Dtype: "f32", Seed: reqSeed(seed, i), Strategy: strategy(seed, i)}
	return "f32" + faulted(i, &req), req
}

// serveSpec sizes one single-daemon workload.
type serveSpec struct {
	mix     mixFunc
	rate    float64 // open-loop requests per second
	quota   int     // closed-loop requests
	limitMS float64 // goodput latency limit
}

var (
	serveSmall = serveSpec{mix: serveSmallMix, rate: 100, quota: 1400, limitMS: 25}
	serveF32   = serveSpec{mix: serveF32Mix, rate: 55, quota: 700, limitMS: 50}
)

func runServeSmall(ctx context.Context, r *run) error { return r.runServe(ctx, serveSmall) }
func runServeF32(ctx context.Context, r *run) error   { return r.runServe(ctx, serveF32) }

// runServe drives one in-process daemon over loopback HTTP: an open loop at
// a fixed rate, then a closed loop with one client per processor.
func (r *run) runServe(ctx context.Context, spec serveSpec) error {
	c := newClient(r.nproc)
	defer c.close()
	start := func() (*daemon, error) {
		d, err := startDaemon(daemonConfig())
		if err != nil {
			return nil, err
		}
		class, req := firstRequest(spec.mix, r.seed)
		if o := c.call(ctx, d.l.url, class, req, r.wrongAnswer); !o.ok {
			d.close()
			return nil, fmt.Errorf("first request failed: %s", o.fail)
		}
		return d, nil
	}
	d, setupS, err := timedSetup(setupReps, start, (*daemon).close)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	do := func(ctx context.Context, i int) outcome {
		class, req := spec.mix(r.seed, i)
		return c.call(ctx, d.l.url, class, req, r.wrongAnswer)
	}
	if r.tr != nil {
		if err := r.tracedTraffic(ctx, spec.rate, do); err != nil {
			return err
		}
		return r.ledger(ctx, probes{daemon: d, mix: spec.mix})
	}

	t := traffic{setupS: setupS, limitMS: spec.limitMS}
	cpu0 := cpuTime()
	t.open = openLoop(ctx, spec.rate, r.phase(0.75), r.nproc, do)
	t.closed, t.closedW = closedLoop(ctx, r.nproc, spec.quota, len(t.open.samples), do)
	t.cpu = cpuTime() - cpu0
	if err := ctx.Err(); err != nil {
		return err
	}
	n, err := checkGEMM(ctx, c, d.l.url, gemmSample(spec.mix, r.seed, len(t.open.samples), 8), r.wrongAnswer)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "client check: %d gemm products compared\n", n)
	r.report(t)
	return nil
}

// firstRequest is the request set-up waits on: a clean gemm of the mix
// (notified verify on the f64 path), so every seed times the same work.
func firstRequest(mix mixFunc, seed uint64) (string, serve.Request) {
	for i := -1; ; i-- {
		class, req := mix(seed, i)
		if req.Kernel == "gemm" && req.Faults == 0 && req.Integrity == "" && req.VerifyMode != "fused" {
			return class, req
		}
	}
}

// gemmSample picks up to k f64 gemm requests among the first n of a mix,
// starting at a seeded offset.
func gemmSample(mix mixFunc, seed uint64, n, k int) []serve.Request {
	var out []serve.Request
	off := int(campaign.Splitmix64(seed) % uint64(n))
	for j := 0; j < n && len(out) < k; j++ {
		_, req := mix(seed, (off+j)%n)
		if req.Kernel == "gemm" && req.Dtype == "" {
			out = append(out, req)
		}
	}
	return out
}
