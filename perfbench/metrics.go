package main

import (
	"fmt"

	"repro/internal/harness"
)

// metricDef names one reported metric and its unit. README.md gives each
// one's definition per workload and the end-to-end metric it should move.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (BENCHMARK.json fixes their bounds). An operation is
// one pass of the 18 cells on fig2-batch, one request on the serving
// workloads and one round trip on http-closed; a pass is the 18 cells, one
// second of scheduled requests, or 1000 round trips.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"wall_s", "s"},
	{"joules_per_pass", "J"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"within_slo_share", "share"},
	{"accurate_share", "share"},
	{"served_share", "share"},
	{"joules_per_req", "J"},
}

// fig2Kernels and fig2Modes span the 18 cells of the fig2-batch workload:
// the six Table 1 kernels under the paper's three policies.
var (
	fig2Kernels = []string{"Sobel", "DCT", "MC", "Kmeans", "Jacobi", "Fluidanimate"}
	fig2Modes   = []harness.Mode{harness.ModeAccurate, harness.ModeGTB, harness.ModeLQH}
)

// perLayer are the traced run's metrics, grouped by the module they
// describe. A workload that does not enter a layer reports its metrics as
// 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// cmd/sigserve
		{"sigserve.frontend_ms_p50", "ms"},
		{"sigserve.frontend_ms_p99", "ms"},
		{"sigserve.server_ms_p50", "ms"},
		{"sigserve.cpu_ms_per_req", "ms"},
		{"sigserve.resp_bytes", "B"},
		// sig/serve
		{"serve.submit_ns_p50", "ns"},
		{"serve.submit_ns_p99", "ns"},
		{"serve.ticket_wait_ms_p50", "ms"},
		{"serve.wave_latency_waves_p99", "waves"},
		{"serve.wave_wall_ms_p50", "ms"},
		{"serve.wave_wall_ms_p99", "ms"},
		{"serve.waves_per_s", "1/s"},
		{"serve.req_per_wave", "count"},
		{"serve.overrun_share", "share"},
		{"serve.measured_period_ms", "ms"},
		{"serve.allocs_per_req", "count"},
		{"serve.rejected", "count"},
		{"serve.timedout", "count"},
		// sig/adapt
		{"adapt.ratio_mean", "ratio"},
		{"adapt.ratio_min", "ratio"},
		{"adapt.load_mean", "ratio"},
		{"adapt.ratio_reversals", "count"},
		// sig/shard
		{"shard.busy_imbalance", "ratio"},
		{"shard.tasks_imbalance", "ratio"},
		{"shard.live", "count"},
	}
	// sig
	for _, k := range fig2Kernels {
		for _, m := range fig2Modes {
			defs = append(defs, metricDef{fmt.Sprintf("sig.run_ms.%s.%s", k, m), "ms"})
		}
	}
	for _, k := range fig2Kernels {
		defs = append(defs, metricDef{"sig.speedup." + k, "x"})
	}
	defs = append(defs,
		metricDef{"sig.ratio_err", "ratio"},
		metricDef{"sig.ratio_err.GTB", "ratio"},
		metricDef{"sig.ratio_err.LQH", "ratio"},
		metricDef{"sig.tasks_per_s", "1/s"},
		metricDef{"sig.busy_share", "share"},
		metricDef{"proc.cpu_util", "share"},
		metricDef{"proc.cpu_ms_per_op", "ms"},
		metricDef{"go.gc_cpu_share", "share"},
	)
	// internal/bench
	for _, k := range fig2Kernels {
		defs = append(defs, metricDef{"kernel.seq_ms." + k, "ms"})
	}
	for _, b := range []string{"sobel", "kmeans"} {
		for _, m := range []string{"accurate", "degraded"} {
			defs = append(defs, metricDef{fmt.Sprintf("kernel.handler_us.%s.%s", b, m), "us"})
		}
	}
	// generator and trace
	defs = append(defs,
		metricDef{"gen.late_ms_p99", "ms"},
		metricDef{"gen.sent", "count"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead_share", "share"},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self_us." + l, "us"})
	}
	return defs
}
