package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics a run
// prints; it must list exactly the names and units metrics.go reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)

	known := map[string]bool{"serve_zipf": true}
	for name := range batchSpecs {
		known[name] = true
	}
	if len(doc.Workloads) != len(known) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(known))
	}
	for _, w := range doc.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}
