package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call the benchmark made into a module. Names are
// <module>.<op>; spans of one request share Req.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	Req     string  `json:"req"`
	StartUS float64 `json:"start_us"` // since the tracer started
	EndUS   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1000 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs fn inside a span and passes fn the span's ID, for children.
func (t *tracer) span(name, req string, parent int, fn func(id int)) {
	if t == nil {
		fn(0)
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req})
	t.mu.Unlock()
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].StartUS = float64(start) / 1e3
	t.spans[id-1].EndUS = float64(end) / 1e3
	t.mu.Unlock()
}

// record adds a span observed after the fact, such as a campaign cell
// reconstructed from the engine's progress reports.
func (t *tracer) record(name, req string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		StartUS: float64(start.Sub(t.t0)) / 1e3, EndUS: float64(end.Sub(t.t0)) / 1e3})
}

// durations returns the durations in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// p50 is the median duration in ms of the spans with this name.
func (t *tracer) p50(name string) float64 { return median(t.durations(name)) }

// selfTime is one row of the self-time table.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// table sums each span name's time, and its self time: the span's duration
// minus the part of it its child spans cover (children may overlap, as
// campaign cells on parallel workers do).
func (t *tracer) table() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	child := make([]float64, len(t.spans)+1)
	for id, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartUS < ks[j].StartUS })
		end := math.Inf(-1)
		for _, k := range ks {
			lo := math.Max(k.StartUS, end)
			if k.EndUS > lo {
				child[id] += (k.EndUS - lo) / 1000
			}
			end = math.Max(end, k.EndUS)
		}
	}
	rows := map[string]*selfTime{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		row := rows[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.TotalMS += s.ms()
		row.SelfMS += s.ms() - child[s.ID]
		durs[s.Name] = append(durs[s.Name], s.ms())
	}
	out := make([]selfTime, 0, len(rows))
	for _, name := range sortedKeys(rows) {
		row := rows[name]
		row.P50MS = median(durs[name])
		out = append(out, *row)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeSpans writes the spans and the self-time table to outDir and prints
// the table to standard error.
func (r *run) writeSpans() error {
	tab := r.tr.table()
	w := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "span\tcount\ttotal ms\tself ms\tp50 ms\t")
	for _, row := range tab {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.3f\t\n", row.Name, row.Count, row.TotalMS, row.SelfMS, row.P50MS)
	}
	_ = w.Flush() // diagnostics only

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	r.tr.mu.Lock()
	doc := map[string]any{"meta": r.meta(), "self_time": tab, "spans": r.tr.spans}
	b, err := json.Marshal(doc)
	r.tr.mu.Unlock()
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(r.tr.spans), path)
	return nil
}
