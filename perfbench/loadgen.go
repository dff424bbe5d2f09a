package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coopabft/internal/serve"
)

// outcome is one operation as the client saw it.
type outcome struct {
	class string // request class, for per-class diagnostics
	ok    bool   // classified corrected or restarted
	fail  string // why it failed: aborted, rejected, unavailable, transport, ...
	resp  serve.Response
}

// sample is one timed operation.
type sample struct {
	outcome
	latMS float64 // +Inf when the operation failed
}

// opFunc performs operation i of a phase; the same i always builds the same
// request from the run's seed.
type opFunc func(ctx context.Context, i int) outcome

// openResult is an open-loop phase: latencies are timed from each request's
// due time, and late is how far behind schedule each request was sent.
type openResult struct {
	samples []sample
	lateMS  []float64
	wall    time.Duration
}

// openLoop sends requests on a fixed schedule: request i is due at
// start + i/rate, whatever happened to earlier requests. conns senders take
// requests in order; a sender that is behind sends at once, and the delay
// counts in that request's latency because the clock starts at its due time.
// A stall therefore charges every request queued behind it, which is what
// users arriving on their own schedule see (no coordinated omission).
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, do opFunc) openResult {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	res := openResult{samples: make([]sample, n), lateMS: make([]float64, n)}
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				res.lateMS[i] = ms(time.Since(due))
				o := do(ctx, i)
				lat := ms(time.Since(due))
				if !o.ok {
					lat = math.Inf(1)
				}
				res.samples[i] = sample{outcome: o, latMS: lat}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// closedLoop runs quota operations from clients workers, each sending its
// next request only when the previous one has completed. Operation indices
// start at offset so the phase's requests differ from the open loop's.
func closedLoop(ctx context.Context, clients, quota, offset int, do opFunc) ([]sample, time.Duration) {
	out := make([]sample, quota)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= quota || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				o := do(ctx, offset+i)
				lat := ms(time.Since(t0))
				if !o.ok {
					lat = math.Inf(1)
				}
				out[i] = sample{outcome: o, latMS: lat}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMS
	}
	return out
}

// failures counts the failed operations in ss.
func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// within counts operations that succeeded inside the latency limit.
func within(ss []sample, limitMS float64) int {
	n := 0
	for _, s := range ss {
		if s.ok && s.latMS <= limitMS {
			n++
		}
	}
	return n
}

// logClasses prints per-class latency quantiles and failure kinds to
// standard error, so a reader can see which class the median falls in.
func logClasses(label string, ss []sample) {
	byClass := map[string][]float64{}
	fails := map[string]int{}
	for _, s := range ss {
		byClass[s.class] = append(byClass[s.class], s.latMS)
		if !s.ok {
			fails[s.class+"/"+s.fail]++
			if s.resp.Error != "" && fails[s.class+"/"+s.fail] == 1 {
				fmt.Fprintf(os.Stderr, "%s %s: %s\n", label, s.class, s.resp.Error)
			}
		}
	}
	for _, c := range sortedKeys(byClass) {
		xs := byClass[c]
		fmt.Fprintf(os.Stderr, "%s %-16s n=%-5d share=%.2f p10=%.2f p50=%.2f p90=%.2f ms\n", label, c,
			len(xs), float64(len(xs))/float64(len(ss)), quantile(xs, 0.1), median(xs), quantile(xs, 0.9))
	}
	for _, k := range sortedKeys(fails) {
		fmt.Fprintf(os.Stderr, "%s failed %s: %d\n", label, k, fails[k])
	}
}

// traffic is what an untraced serving run measured.
type traffic struct {
	setupS   float64
	open     openResult
	closed   []sample
	closedW  time.Duration
	cpu      time.Duration
	limitMS  float64
	jobP50MS float64 // 0: use the closed loop's median
	extraOps int     // operations outside the two phases (jobs)
	extraBad int
}

// report sets the end-to-end metrics shared by the serving workloads.
func (r *run) report(t traffic) {
	all := append(append([]sample(nil), t.open.samples...), t.closed...)
	attempted := len(all) + t.extraOps
	failed := failures(all) + t.extraBad
	r.count(attempted, failed)
	logClasses("open  ", t.open.samples)
	logClasses("closed", t.closed)
	lat := latencies(t.open.samples)
	fmt.Fprintf(os.Stderr, "open loop: late p50 %.3f ms p99 %.3f ms\n", median(t.open.lateMS), quantile(t.open.lateMS, 0.99))
	r.tail(lat)
	r.set("setup_s", "s", t.setupS)
	r.set("lat_p50_ms", "ms", finite(median(lat)))
	r.set("goodput_rps", "1/s", float64(within(t.closed, t.limitMS))/t.closedW.Seconds())
	r.set("ok_share", "share", float64(attempted-failed)/float64(attempted))
	done := attempted - failed
	if done < 1 {
		done = 1
	}
	r.set("cpu_ms_per_op", "ms", ms(t.cpu)/float64(done))
	r.set("mem_peak_mb", "MB", peakRSSMB())
	job := t.jobP50MS
	if job == 0 {
		job = finite(median(latencies(t.closed)))
	}
	r.set("job_p50_ms", "ms", job)
	r.set("eval_s", "s", t.closedW.Seconds())
}
