// Command perfbench is the repository benchmark. It runs one named workload
// against the system built from this checkout, checks answers on the
// client, and prints one JSON result line as the last line of its output:
//
//	perfbench --workload serve-small --seed 1 --seconds 12 --trace 0
//
// Workloads are serve-small, serve-f32, cluster-mixed and paper-eval (see
// README.md). With --trace 0 the result carries the end-to-end metrics;
// with --trace 1 it carries the per-layer ledger, and the run's spans are
// written under .bench_build/perfbench/. A line starting with "meta" before
// the result stamps the host and run metadata.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"coopabft/internal/mat"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its result.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	nproc    int
	tr       *tracer // nil in untraced runs

	mu        sync.Mutex
	metrics   map[string]metric
	attempted int
	failed    int
	wrong     []string
	tailMS    map[string]float64 // upper latency percentiles, for the meta line
	regens    uint64             // figure-set regenerations so far
}

func (r *run) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// wrongAnswer records a client-detected wrong answer; any one of them fails
// the run.
func (r *run) wrongAnswer(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong = append(r.wrong, err.Error())
}

// count adds operations to the attempted/failed tallies of the result.
func (r *run) count(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
}

// phase returns a share of the run length.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * float64(r.seconds))
}

var workloads = map[string]func(context.Context, *run) error{
	"serve-small":   runServeSmall,
	"serve-f32":     runServeF32,
	"cluster-mixed": runClusterMixed,
	"paper-eval":    runPaperEval,
}

// outDir holds span dumps; it lies inside the checkout and is git-ignored.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload name: serve-small, serve-f32, cluster-mixed, paper-eval")
	seed := flag.Uint64("seed", 1, "workload seed every generated input derives from")
	seconds := flag.Int("seconds", 12, "measured run length in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		metrics:  map[string]metric{},
	}
	if *traced == 1 {
		r.tr = newTracer()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := fn(ctx, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	want := endToEnd
	if r.tr != nil {
		want = perLayer
		if err := r.writeSpans(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		got, ok := r.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", r.workload, m.name)
			return 1
		}
		res.Metrics[m.name] = got
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", r.workload)
		return 1
	}
	for _, w := range r.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG ANSWER: %s\n", w)
	}
	meta, _ := json.Marshal(r.meta())
	fmt.Printf("meta %s\n", meta)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// meta is the host and run metadata stamped on every result.
func (r *run) meta() map[string]any {
	m := map[string]any{
		"workload":       r.workload,
		"seed":           r.seed,
		"seconds":        r.seconds.Seconds(),
		"trace":          r.tr != nil,
		"nproc":          r.nproc,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"mat_parallel":   mat.Parallelism(),
		"git_commit":     gitCommit(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"utc_start_unix": startTime.Unix(),
	}
	if r.tailMS != nil {
		m["latency_tail_ms"] = r.tailMS
	}
	return m
}

var startTime = time.Now()

// gitCommit reads the checkout's HEAD without running git; a checkout that
// is not a repository reports "none".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}

// sortedKeys returns a map's keys in order, for stable diagnostics.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
