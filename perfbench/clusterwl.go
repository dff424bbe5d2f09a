package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"coopabft/internal/campaign"
	"coopabft/internal/serve"
)

// clusterMix: f64 gemm n=48 through the gateway, 60% integrity none, 20%
// vote, 20% verify-vote. None is the fastest class and holds the median.
func clusterMix(seed uint64, i int) (string, serve.Request) {
	req := serve.Request{Kernel: "gemm", N: 48, Seed: reqSeed(seed, i), Strategy: strategy(seed, i)}
	switch u := draw(seed, i, 0); {
	case u < 0.6:
		return "none", req
	case u < 0.8:
		req.Integrity = "vote"
		return "vote", req
	default:
		req.Integrity = "verify-vote"
		return "verify-vote", req
	}
}

const (
	clusterNodes = 3
	clusterRate  = 85   // open-loop requests per second
	clusterQuota = 900  // closed-loop requests
	clusterLimit = 50.0 // goodput latency limit, ms
	jobN         = 512
	jobInterval  = time.Second
	jobPoll      = 5 * time.Millisecond
)

// jobSample is one sharded job as the client timed it.
type jobSample struct {
	seed     uint64
	ok       bool
	clientMS float64 // submit to the poll that saw it done
	serverMS float64 // the gateway's own queue + run time
	digest   string
}

// runJob submits one sharded gemm job and polls it at a fixed interval
// well below the job time, so the client time is not quantised by back-off.
func runJob(ctx context.Context, c *client, base string, seed uint64) jobSample {
	js := jobSample{seed: seed}
	t0 := time.Now()
	var st serve.JobStatus
	if _, err := c.do(ctx, http.MethodPost, base+"/v1/jobs", serve.Request{Kernel: "gemm", N: jobN, Seed: seed}, &st); err != nil {
		fmt.Fprintf(os.Stderr, "job submit: %v\n", err)
		return js
	}
	for st.State == serve.JobQueued || st.State == serve.JobRunning {
		time.Sleep(jobPoll)
		if _, err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, &st); err != nil {
			fmt.Fprintf(os.Stderr, "job poll: %v\n", err)
			return js
		}
	}
	js.clientMS = ms(time.Since(t0))
	js.serverMS = st.QueueMS + st.RunMS
	js.ok = st.State == serve.JobDone && st.Sharded
	js.digest = st.Digest
	if !js.ok {
		fmt.Fprintf(os.Stderr, "job %s: state %s sharded %v: %s\n", st.ID, st.State, st.Sharded, st.Error)
	}
	return js
}

// jobStream submits one job per interval, one at a time, until stop closes.
func jobStream(ctx context.Context, c *client, base string, seed uint64, stop <-chan struct{}) []jobSample {
	var out []jobSample
	start := time.Now()
	for k := 0; ; k++ {
		wait := time.NewTimer(time.Until(start.Add(time.Duration(k) * jobInterval)))
		select {
		case <-stop:
			wait.Stop()
			return out
		case <-ctx.Done():
			wait.Stop()
			return out
		case <-wait.C:
		}
		out = append(out, runJob(ctx, c, base, campaign.Splitmix64(seed^uint64(k)^0x10b5)))
	}
}

func startClusterReady(ctx context.Context, c *client, r *run) (*clusterSUT, error) {
	cs, err := startCluster(clusterNodes)
	if err != nil {
		return nil, err
	}
	class, req := firstRequest(clusterMix, r.seed)
	if o := c.call(ctx, cs.l.url, class, req, r.wrongAnswer); !o.ok {
		cs.close()
		return nil, fmt.Errorf("first request failed: %s", o.fail)
	}
	return cs, nil
}

// runClusterMixed drives a gateway over three in-process workers: an open
// loop of interactive gemm requests with a sharded-job stream beside it,
// then a closed loop of the interactive mix.
func runClusterMixed(ctx context.Context, r *run) error {
	c := newClient(r.nproc)
	defer c.close()
	cs, setupS, err := timedSetup(setupReps, func() (*clusterSUT, error) { return startClusterReady(ctx, c, r) }, (*clusterSUT).close)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer cs.close()
	do := func(ctx context.Context, i int) outcome {
		class, req := clusterMix(r.seed, i)
		return c.call(ctx, cs.l.url, class, req, r.wrongAnswer)
	}
	if r.tr != nil {
		if err := r.tracedTraffic(ctx, clusterRate, do); err != nil {
			return err
		}
		return r.ledger(ctx, probes{cluster: cs, mix: clusterMix})
	}

	t := traffic{setupS: setupS, limitMS: clusterLimit}
	cpu0 := cpuTime()
	stop := make(chan struct{})
	jobsDone := make(chan []jobSample, 1)
	go func() { jobsDone <- jobStream(ctx, c, cs.l.url, r.seed, stop) }()
	t.open = openLoop(ctx, clusterRate, r.phase(0.75), r.nproc, do)
	close(stop)
	jobs := <-jobsDone
	t.closed, t.closedW = closedLoop(ctx, r.nproc, clusterQuota, len(t.open.samples), do)
	t.cpu = cpuTime() - cpu0
	if err := ctx.Err(); err != nil {
		return err
	}

	var jobMS, gap []float64
	for _, j := range jobs {
		if !j.ok {
			t.extraBad++
			jobMS = append(jobMS, math.Inf(1))
			continue
		}
		jobMS = append(jobMS, j.clientMS)
		gap = append(gap, j.clientMS-j.serverMS)
		if j.clientMS < j.serverMS {
			return fmt.Errorf("job timing: client %.1f ms below the gateway's %.1f ms", j.clientMS, j.serverMS)
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no sharded job ran")
	}
	t.extraOps = len(jobs)
	t.jobP50MS = finite(median(jobMS))
	fmt.Fprintf(os.Stderr, "jobs: %d, p50 %.1f ms, client minus gateway time p50 %.2f ms max %.2f ms (poll %s)\n",
		len(jobs), t.jobP50MS, median(gap), quantile(gap, 1), jobPoll)

	// Answers: a replayed gemm sample straight from one worker, and the
	// digests of a sample of jobs against a local recompute.
	n, err := checkGEMM(ctx, c, cs.workers[0].l.url, gemmSample(clusterMix, r.seed, len(t.open.samples), 8), r.wrongAnswer)
	if err != nil {
		return err
	}
	checkedJobs := 0
	for k := 0; k < len(jobs) && checkedJobs < 3; k += 1 + len(jobs)/3 {
		if j := jobs[k]; j.ok {
			if want := jobDigest(jobN, j.seed); want != j.digest {
				r.wrongAnswer(fmt.Errorf("job n=%d seed %d: digest %s, local recompute %s", jobN, j.seed, j.digest, want))
			}
			checkedJobs++
		}
	}
	fmt.Fprintf(os.Stderr, "client check: %d gemm products, %d job digests compared\n", n, checkedJobs)
	r.report(t)
	return nil
}
