package campaign

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestCellSeedDeterministicAndDistinct: seeds are pure functions of
// (campaign, cell) and distinct across neighboring cells and campaigns.
func TestCellSeedDeterministicAndDistinct(t *testing.T) {
	if CellSeed(42, 0) != CellSeed(42, 0) {
		t.Error("CellSeed not deterministic")
	}
	seen := map[uint64]bool{}
	for c := uint64(0); c < 1000; c++ {
		s := CellSeed(42, c)
		if seen[s] {
			t.Fatalf("seed collision at cell %d", c)
		}
		seen[s] = true
	}
	if CellSeed(1, 7) == CellSeed(2, 7) {
		t.Error("different campaigns share a cell seed")
	}
}

// TestMapParallelMatchesSerial: the core determinism guarantee — the same
// seeded cells produce identical output regardless of worker count.
func TestMapParallelMatchesSerial(t *testing.T) {
	cell := func(_ context.Context, i int) (float64, error) {
		rng := rand.New(rand.NewSource(int64(CellSeed(7, uint64(i)))))
		sum := 0.0
		for k := 0; k < 100; k++ {
			sum += rng.Float64()
		}
		return sum, nil
	}
	serial, _, err := Map(context.Background(), New(WithWorkers(1)), 64, cell)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := Map(context.Background(), New(WithWorkers(8)), 64, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestRunCancellation: a cancelled campaign stops promptly and reports a
// partial-result error that unwraps to context.Canceled.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	eng := New(WithWorkers(2))
	done := make(chan struct{})
	var err error
	var m Metrics
	go func() {
		defer close(done)
		m, err = eng.Run(ctx, 1000, func(ctx context.Context, i int) error {
			if started.Add(1) == 1 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled campaign did not return promptly")
	}
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
	if pe.Done >= pe.Total {
		t.Errorf("partial error claims completion: %+v", pe)
	}
	if m.Done != pe.Done {
		t.Errorf("metrics done %d != partial done %d", m.Done, pe.Done)
	}
}

// TestRunCellError: a failing cell cancels the campaign and surfaces the
// cell error with its index.
func TestRunCellError(t *testing.T) {
	boom := errors.New("boom")
	_, err := New(WithWorkers(4)).Run(context.Background(), 100, func(_ context.Context, i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("cell error lost: %v", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PartialError", err)
	}
	if !strings.Contains(err.Error(), "cell 3") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
}

// TestMetrics: counters and derived rates are consistent after a full run.
func TestMetrics(t *testing.T) {
	eng := New(WithWorkers(3))
	if eng.Workers() != 3 {
		t.Fatalf("workers = %d", eng.Workers())
	}
	m, err := eng.Run(context.Background(), 10, func(_ context.Context, i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Done != 10 || m.Cells != 10 {
		t.Errorf("done %d/%d", m.Done, m.Cells)
	}
	if m.CellsPerSec <= 0 || m.AvgCell <= 0 || m.BusyTime <= 0 {
		t.Errorf("derived metrics not populated: %+v", m)
	}
	if m.MinCell > m.AvgCell || m.AvgCell > m.MaxCell {
		t.Errorf("min/avg/max out of order: %+v", m)
	}
	if m.Utilization <= 0 || m.Utilization > 1.0001 {
		t.Errorf("utilization %v out of range", m.Utilization)
	}
}

// TestProgressCallback: the callback observes monotone completion ending
// at the final cell count.
func TestProgressCallback(t *testing.T) {
	var lastDone atomic.Int32
	eng := New(WithWorkers(2), WithProgress(func(m Metrics) {
		if int32(m.Done) < lastDone.Load() {
			t.Errorf("progress went backwards: %d -> %d", lastDone.Load(), m.Done)
		}
		lastDone.Store(int32(m.Done))
	}))
	if _, err := eng.Run(context.Background(), 20, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if lastDone.Load() != 20 {
		t.Errorf("final progress done = %d", lastDone.Load())
	}
}

// TestProgressCallbacksSerialised: WithProgress promises callbacks under
// the engine's bookkeeping lock, so a callback may keep plain state with no
// lock of its own (the race detector checks that) and sees Done in order,
// ending at the final count.
func TestProgressCallbacksSerialised(t *testing.T) {
	const cells = 200
	var calls, lastDone int
	backwards := false
	eng := New(WithWorkers(8), WithProgress(func(m Metrics) {
		calls++
		if m.Done < lastDone {
			backwards = true
		}
		lastDone = m.Done
	}))
	if _, err := eng.Run(context.Background(), cells, func(_ context.Context, i int) error {
		runtime.Gosched()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if backwards {
		t.Error("progress Done went backwards")
	}
	if lastDone != cells || calls != cells+1 {
		t.Errorf("final Done %d after %d calls, want %d after %d", lastDone, calls, cells, cells+1)
	}
}

func TestStderrProgressRenders(t *testing.T) {
	var b bytes.Buffer
	p := StderrProgress(&b, "sweep", time.Nanosecond)
	p(Metrics{Workers: 2, Cells: 4, Done: 2, CellsPerSec: 1.5})
	p(Metrics{Workers: 2, Cells: 4, Done: 4, CellsPerSec: 2.0})
	out := b.String()
	if !strings.Contains(out, "sweep") || !strings.Contains(out, "4/4") {
		t.Errorf("progress output missing fields: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("final progress line not terminated")
	}
}

func TestRunEmpty(t *testing.T) {
	m, err := New().Run(context.Background(), 0, func(_ context.Context, i int) error { return nil })
	if err != nil || m.Done != 0 {
		t.Fatalf("empty campaign: %v %+v", err, m)
	}
}
