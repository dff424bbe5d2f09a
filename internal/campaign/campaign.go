// Package campaign is the parallel campaign engine: a worker-pool
// scheduler that fans independent simulation cells — experiment sweep
// cells, Monte-Carlo trials, capability-curve trials, threshold sweep
// points — across the host's cores with deterministic per-cell RNG
// seeding, so a campaign's output is bit-identical whether it runs on one
// worker or on all of them. Every later scaling layer (sharding, batching,
// multi-backend dispatch) schedules work through this engine.
//
// Determinism contract: a cell must derive all of its randomness from its
// cell index (via CellSeed or an equivalent pure function of the campaign
// seed and the index) and must not touch state shared with other cells.
// Under that contract Map returns results indexed by cell, independent of
// worker count and completion order.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix used
// to derive statistically independent streams from structured inputs
// (campaign seed, cell index).
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CellSeed derives the deterministic RNG seed for one cell of a campaign.
// It depends only on (campaignSeed, cell), never on shared RNG state or
// scheduling order, which is what makes parallel output bit-identical to
// serial output.
func CellSeed(campaignSeed uint64, cell uint64) uint64 {
	return Splitmix64(campaignSeed ^ Splitmix64(cell+0x517cc1b727220a95))
}

// Metrics is the engine's lightweight progress/observability snapshot.
type Metrics struct {
	Workers int           // pool size
	Cells   int           // total cells in the campaign
	Done    int           // cells completed so far
	Elapsed time.Duration // wall time since the campaign started

	CellsPerSec float64       // Done / Elapsed
	MinCell     time.Duration // fastest completed cell
	MaxCell     time.Duration // slowest completed cell
	AvgCell     time.Duration // mean completed-cell wall time
	BusyTime    time.Duration // sum of per-cell wall times across workers
	Utilization float64       // BusyTime / (Workers × Elapsed)
}

// ProgressFunc receives metric snapshots: once per completed cell and a
// final snapshot when the campaign ends.
type ProgressFunc func(Metrics)

// PartialError reports a campaign that stopped before completing every
// cell — context cancellation or a failing cell. Results for cells that
// never ran are the zero value; Done counts the cells that finished.
type PartialError struct {
	Done  int
	Total int
	Err   error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("campaign: stopped after %d/%d cells: %v", e.Done, e.Total, e.Err)
}

// Unwrap exposes the cause (context.Canceled, context.DeadlineExceeded, or
// the first cell error).
func (e *PartialError) Unwrap() error { return e.Err }

// Engine is a reusable worker-pool scheduler. The zero value is not
// usable; build one with New.
type Engine struct {
	workers  int
	progress ProgressFunc
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the pool size; n <= 0 selects runtime.NumCPU().
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithProgress installs a progress callback. The callback runs on worker
// goroutines under the engine's bookkeeping lock: keep it fast.
func WithProgress(f ProgressFunc) Option {
	return func(e *Engine) { e.progress = f }
}

// New builds an engine. With no options the pool is sized to the host
// (runtime.NumCPU).
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.NumCPU()
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// tally accumulates per-cell timings under its own lock — the engine's
// bookkeeping lock. Progress callbacks run under it too, so they are
// serialised and observe Done in order.
type tally struct {
	mu       sync.Mutex
	workers  int
	cells    int
	start    time.Time
	progress ProgressFunc
	done     int
	min, max time.Duration
	busy     time.Duration
}

// add records one completed cell and reports the snapshot it produced.
func (t *tally) add(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	t.busy += d
	if t.min == 0 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	if t.progress != nil {
		t.progress(t.snapshot())
	}
}

// finish returns the final metrics, reporting them as the last snapshot.
func (t *tally) finish() Metrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.snapshot()
	if t.progress != nil {
		t.progress(m)
	}
	return m
}

// snapshot builds the current metrics; the caller holds t.mu.
func (t *tally) snapshot() Metrics {
	m := Metrics{
		Workers:  t.workers,
		Cells:    t.cells,
		Done:     t.done,
		Elapsed:  time.Since(t.start),
		MinCell:  t.min,
		MaxCell:  t.max,
		BusyTime: t.busy,
	}
	if t.done > 0 {
		m.AvgCell = t.busy / time.Duration(t.done)
	}
	if s := m.Elapsed.Seconds(); s > 0 {
		m.CellsPerSec = float64(t.done) / s
	}
	if denom := float64(t.workers) * m.Elapsed.Seconds(); denom > 0 {
		m.Utilization = t.busy.Seconds() / denom
	}
	return m
}

// Run fans n cells across the pool and blocks until every cell finished,
// the context was cancelled, or a cell returned an error (which cancels
// the remaining cells). It returns the final metrics and, on early stop, a
// *PartialError.
func (e *Engine) Run(ctx context.Context, n int, cell func(ctx context.Context, i int) error) (Metrics, error) {
	t := tally{workers: e.workers, cells: n, start: time.Now(), progress: e.progress}
	if n <= 0 {
		return t.snapshot(), nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next cell index to claim
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	workers := e.workers
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				cellStart := time.Now()
				if err := cell(ctx, i); err != nil {
					err = fmt.Errorf("cell %d: %w", i, err)
					if firstErr.CompareAndSwap(nil, &err) {
						cancel()
					}
					return
				}
				t.add(time.Since(cellStart))
			}
		}()
	}
	wg.Wait()

	m := t.finish()
	if ep := firstErr.Load(); ep != nil {
		return m, &PartialError{Done: m.Done, Total: n, Err: *ep}
	}
	if err := ctx.Err(); err != nil && m.Done < n {
		return m, &PartialError{Done: m.Done, Total: n, Err: err}
	}
	return m, nil
}

// Map fans n cells across the engine and collects each cell's value into
// a slice indexed by cell — the deterministic fan-out primitive. On early
// stop the slice holds zero values for cells that never ran and the error
// is a *PartialError.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, Metrics, error) {
	out := make([]T, n)
	m, err := e.Run(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, m, err
}
