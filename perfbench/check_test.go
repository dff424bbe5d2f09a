package main

import (
	"context"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/serve"
)

// TestCheckerCatchesLyingWorker starts a daemon that lies on every
// integrity-tier answer and checks that the client-side product check
// flags each replayed answer, while an honest daemon passes.
func TestCheckerCatchesLyingWorker(t *testing.T) {
	for _, tc := range []struct {
		name string
		lie  float64
	}{{"honest", 0}, {"lying", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := daemonConfig()
			cfg.LieFraction = tc.lie
			d, err := startDaemon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			c := newClient(2)
			defer c.close()
			reqs := gemmSample(serveSmallMix, 7, 64, 4)
			var wrong []error
			n, err := checkGEMM(context.Background(), c, d.l.url, reqs, func(e error) { wrong = append(wrong, e) })
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("no answer was compared")
			}
			switch {
			case tc.lie == 0 && len(wrong) != 0:
				t.Fatalf("honest daemon flagged: %v", wrong)
			case tc.lie == 1 && len(wrong) != n:
				t.Fatalf("lying daemon: %d of %d wrong answers caught: %v", len(wrong), n, wrong)
			}
		})
	}
}

// TestCompareProduct checks the local recompute against an honest FT-DGEMM
// product, a product with one wrong element, and bytes that do not match
// their signature.
func TestCompareProduct(t *testing.T) {
	const n, seed = 24, 3
	d, err := abft.NewDGEMM(abft.Standalone(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	c := d.C().Clone()
	resp := serve.Response{Answer: abft.PackBlock(c), AnswerSig: abft.BitDigest(c)}
	if err := compareProduct(n, seed, resp); err != nil {
		t.Fatalf("honest product: %v", err)
	}
	c.Set(3, 5, c.At(3, 5)+1)
	if err := compareProduct(n, seed, serve.Response{Answer: abft.PackBlock(c), AnswerSig: abft.BitDigest(c)}); err == nil {
		t.Fatal("a wrong element passed the check")
	}
	if err := compareProduct(n, seed, serve.Response{Answer: abft.PackBlock(c), AnswerSig: resp.AnswerSig}); err == nil {
		t.Fatal("bytes that do not match their signature passed the check")
	}
}

// TestOpenLoopCountsStalls stalls the first request and checks that the
// requests scheduled behind it are charged the wait: latency runs from each
// request's due time, not from when it was finally sent.
func TestOpenLoopCountsStalls(t *testing.T) {
	const stall = 200 * time.Millisecond
	res := openLoop(context.Background(), 100, 300*time.Millisecond, 1, func(_ context.Context, i int) outcome {
		if i == 0 {
			time.Sleep(stall)
		}
		return outcome{ok: true}
	})
	if len(res.samples) != 30 {
		t.Fatalf("%d samples, want 30", len(res.samples))
	}
	// Request 5 was due 50 ms in and could only go out after the stall.
	if lat := res.samples[5].latMS; lat < 100 {
		t.Fatalf("request behind the stall reports %.1f ms; the stall was not counted", lat)
	}
	if late := res.lateMS[5]; late < 100 {
		t.Fatalf("lateness %.1f ms behind a %s stall", late, stall)
	}
}
