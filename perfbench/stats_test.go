package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {99999, 0.999}, {100000, 0.9999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples beyond the chosen level, and
		// fewer than ten beyond the next one up.
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, c.want), 100*c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	d := newDist([]float64{3, 1, 2})
	if d.n != 3 || d.p50 != 2 || d.tailQ != 0 {
		t.Errorf("newDist of 3 samples = %+v", d)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.05, 0.95}, [3]float64{0.9, 1.0, 1.1}},
	} {
		q1, med, q3 := quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestMedianMeanImbalanceReversals(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("median of {7,1,3} = %v, want 3", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := imbalance([]float64{1, 3}); got != 1.5 {
		t.Errorf("imbalance({1,3}) = %v, want 1.5", got)
	}
	if got := imbalance([]float64{0, 0}); got != 0 {
		t.Errorf("imbalance of idle shards = %v, want 0", got)
	}
	if got := reversals([]float64{1, 1, 0.8, 0.8, 0.9, 1, 0.7, 0.7}); got != 2 {
		t.Errorf("reversals = %v, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, parent: 0, name: "pass", start: 0, end: 100},
		// Two overlapping children and one sticking out past the parent:
		// together they cover [10,40) and [90,100) of it.
		{id: 2, parent: 1, name: "cell", start: 10, end: 30},
		{id: 3, parent: 1, name: "cell", start: 20, end: 40},
		{id: 4, parent: 1, name: "cell", start: 90, end: 120},
		{id: 5, parent: 2, name: "sig.Run", start: 12, end: 28},
		// A span whose parent is not recorded is a root.
		{id: 6, parent: 99, name: "quality", start: 0, end: 5},
	}
	want := []int64{60, 4, 20, 30, 16, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	layers := layerSelf(spans)
	if layers["bench"] != 60+4+20+30 || layers["sig"] != 16 || layers["kernel"] != 5 {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.record(1, 0, 0, "pass", 0, 1)
	if got := spansOf(tr, newTracer(1)); len(got) != 0 {
		t.Errorf("spansOf = %v, want none", got)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metric
// tables in step: each end-to-end and per-layer metric is declared there
// once, with the unit the command prints.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the command reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cfg.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q", i, cfg.Workloads[i].Name, w.name)
		}
	}
}

func TestGoldenCoversEveryCell(t *testing.T) {
	for _, k := range fig2Kernels {
		for _, m := range fig2Modes {
			if _, ok := fig2Golden[k+"/"+string(m)]; !ok {
				t.Errorf("no golden record for %s/%s", k, m)
			}
		}
	}
	if len(fig2Golden) != len(fig2Kernels)*len(fig2Modes) {
		t.Errorf("%d golden records for %d cells", len(fig2Golden), len(fig2Kernels)*len(fig2Modes))
	}
}
