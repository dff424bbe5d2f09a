package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract; BENCHMARK.json mirrors them (bench_test.go checks the two agree).
type metricDef struct {
	name, unit, better string
}

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"goodput_rps", "1/s", "higher"},
	{"ok_share", "share", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"mem_peak_mb", "MB", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"eval_s", "s", "lower"},
}

// perLayer is printed by every traced run, on every workload.
var perLayer = []metricDef{
	{"mat.gemm_gflops", "GFLOP/s", "higher"},
	{"mat.gemm_block_gflops", "GFLOP/s", "higher"},
	{"mat.gemm32_gflops", "GFLOP/s", "higher"},
	{"mat.fused_overhead_pct", "%", "lower"},
	{"abft.dgemm_ms", "ms", "lower"},
	{"abft.oracle_ms", "ms", "lower"},
	{"abft.oracle_share", "share", "lower"},
	{"abft.gemm32_ms", "ms", "lower"},
	{"abft.gemm32_overhead_x", "x", "lower"},
	{"abft.gemm32_faulted_overhead_x", "x", "lower"},
	{"abft.check_product_ms", "ms", "lower"},
	{"abft.block_pack_ms", "ms", "lower"},
	{"machine.setup_ms", "ms", "lower"},
	{"machine.sim_ms", "ms", "lower"},
	{"machine.sim_share", "share", "lower"},
	{"machine.touch_ns", "ns", "lower"},
	{"recovery.run_ms", "ms", "lower"},
	{"recovery.run_ms.cholesky", "ms", "lower"},
	{"recovery.run_ms.cg", "ms", "lower"},
	{"recovery.restarts_per_req", "count", "lower"},
	{"recovery.steps_lost_share", "share", "lower"},
	{"recovery.degradations", "count", "lower"},
	{"serve.do_ms", "ms", "lower"},
	{"serve.http_hop_ms", "ms", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.run_ms", "ms", "lower"},
	{"serve.batched_share", "share", "higher"},
	{"serve.rejected_share", "share", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.vote_x", "x", "lower"},
	{"cluster.verify_vote_x", "x", "lower"},
	{"cluster.retries_share", "share", "lower"},
	{"cluster.job_block_ms", "ms", "lower"},
	{"cluster.job_overhead_x", "x", "lower"},
	{"experiments.harness_s", "s", "lower"},
	{"campaign.cells_per_s", "1/s", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
}

// tail records the upper latency percentiles of the run's open loop, with
// the sample count, for the meta line. They are reported there rather than
// bounded: on a small shared host they move with a second-long stall, or a
// slower ten minutes, more than with the code.
func (r *run) tail(lat []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tailMS = map[string]float64{
		"n":    float64(len(lat)),
		"p90":  finite(quantile(lat, 0.9)),
		"p95":  finite(quantile(lat, 0.95)),
		"p99":  finite(quantile(lat, 0.99)),
		"p999": finite(quantile(lat, 0.999)),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite maps an infinite latency (a percentile that landed on failed
// requests) to a large finite number, since JSON has no infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
