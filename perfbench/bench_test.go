package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json, the metric lists
// the command prints, and the layer map in layers.json name the same things.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)

	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not runnable", w.Name)
		}
	}
	same := func(kind string, listed []def, code []metricDef) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(listed), len(code))
			return
		}
		for i, m := range code {
			j := listed[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, code %s/%s/%s", kind, i, j.Name, j.Unit, j.Better, m.name, m.unit, m.better)
			}
			if (kind == "end_to_end") != (j.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, j.Name, j.Bound != nil)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)

	var layers struct {
		Layers []struct{ Metric, Module string }
	}
	readJSON(t, "layers.json", &layers)
	mapped := map[string]bool{}
	for _, l := range layers.Layers {
		mapped[l.Metric] = true
	}
	for _, m := range perLayer {
		if !mapped[m.name] {
			t.Errorf("per-layer metric %s is missing from layers.json", m.name)
		}
	}
	if len(layers.Layers) != len(perLayer) {
		t.Errorf("layers.json maps %d metrics, the command prints %d", len(layers.Layers), len(perLayer))
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
