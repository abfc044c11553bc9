// Command perfbench is the repository's benchmark. It runs one workload of
// the significance-aware runtime stack, checks its outputs, and prints every
// metric by name and unit, ending with one JSON line:
//
//	perfbench -workload fig2-batch -seed 1 -seconds 10 -trace 0
//
// -trace 0 measures the end-to-end metrics; -trace 1 runs the workload
// twice, untraced then with spans recorded around every call into a layer,
// and reports the per-layer metrics, per-layer self time and the tracing
// overhead. run.sh builds this command and the sigserve binary and runs it;
// README.md records why each workload exists and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/harness"
)

// runConfig is what every workload's set-up receives.
type runConfig struct {
	seed     uint64
	cpus     int
	sigserve string // path of the built cmd/sigserve binary
}

// instance is a set-up workload, ready to measure.
type instance interface {
	measure(seconds float64, traced bool) (*measurement, error)
	close() error
}

// workload is one named input of the benchmark.
type workload struct {
	name  string
	setup func(runConfig) (instance, error)
}

var workloads = []workload{
	{"fig2-batch", setupFig2},
	{"serve-light", func(c runConfig) (instance, error) { return setupServe(c, serveLight) }},
	{"serve-overload", func(c runConfig) (instance, error) { return setupServe(c, serveOverload) }},
	{"http-closed", setupHTTP},
}

// A -trace 0 run sets its workload up at least setupReps times, and more
// until setupMin of set-up time has passed, up to setupMaxReps; setup_s is
// the median. Set-ups of a few milliseconds (the serving workloads) spread
// by a third over 9 repetitions; hundreds hold their median steady.
const (
	setupReps    = 9
	setupMaxReps = 201
	setupMin     = time.Second
)

// measurement is what one measured window yields.
type measurement struct {
	e2e, layer        map[string]float64
	attempted, failed int
	// ops and cpuPerOp (seconds of CPU per operation, server included)
	// give proc.cpu_ms_per_op and price the tracing overhead.
	ops      int
	cpuPerOp float64
	spans    []span
	problems []string // failed correctness checks
	notes    []string // human-readable lines
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: fig2-batch, serve-light, serve-overload or http-closed")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		sigserve = flag.String("sigserve", "", "path of the built cmd/sigserve binary")
		traces   = flag.String("traces", "", "directory the traced run writes its spans to")
		commit   = flag.String("commit", "unknown", "commit of the code under test")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *sigserve, *traces, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, sigserve, traces, commit string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 2 {
		// A serving pass is one second, and a traced run measures half.
		return fmt.Errorf("seconds must be at least 2, got %v", seconds)
	}
	h := harness.Host()
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.CPUs, h.GoMaxProcs, h.GoVersion, commit)
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	cfg := runConfig{seed: seed, cpus: runtime.GOMAXPROCS(0), sigserve: sigserve}

	var (
		m    *measurement
		defs []metricDef
		err  error
	)
	if traced {
		defs = perLayer
		m, err = measureTraced(wl, cfg, seconds, traces)
	} else {
		defs = endToEnd
		m, err = measureUntraced(wl, cfg, seconds)
	}
	if err != nil {
		return err
	}
	res := result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricOut{}}
	values := m.e2e
	if traced {
		values = m.layer
	}
	for _, n := range m.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			return fmt.Errorf("%s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range m.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operation", name)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness check(s) failed", len(m.problems))
	}
	return nil
}

// measureUntraced sets the workload up repeatedly (setup_s is the median;
// see setupReps) and measures the last set-up for the full window.
func measureUntraced(wl *workload, cfg runConfig, seconds float64) (*measurement, error) {
	var (
		inst   instance
		setups []float64
		spent  time.Duration
	)
	for len(setups) < setupReps || (spent < setupMin && len(setups) < setupMaxReps) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		// Collect the previous set-up's garbage and hand its memory back to
		// the OS outside the timed region, so every set-up starts from the
		// same resident set and neither setup_s nor peak RSS depends on
		// when GC or the scavenger last ran.
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(cfg); err != nil {
			return nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	m, err := inst.measure(seconds, false)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = median(setups)
	if _, ok := m.e2e["peak_rss_mb"]; !ok {
		m.e2e["peak_rss_mb"] = selfPeakRSSMB()
	}
	return m, nil
}

// measureTraced measures half the window untraced and half traced, each on
// a fresh set-up, and returns the traced measurement's per-layer metrics
// with self time per layer and the tracing overhead (the traced run's CPU
// per operation over the untraced run's, minus one).
func measureTraced(wl *workload, cfg runConfig, seconds float64, traces string) (*measurement, error) {
	var runs [2]*measurement
	for i, traced := range []bool{false, true} {
		inst, err := wl.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		m, err := inst.measure(seconds/2, traced)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		runs[i] = m
	}
	plain, m := runs[0], runs[1]
	m.attempted += plain.attempted
	m.failed += plain.failed
	m.problems = append(plain.problems, m.problems...)
	if plain.cpuPerOp > 0 {
		m.layer["trace.overhead_share"] = m.cpuPerOp/plain.cpuPerOp - 1
	}
	m.layer["proc.cpu_ms_per_op"] = plain.cpuPerOp * 1e3
	m.layer["trace.spans"] = float64(len(m.spans))
	self := layerSelf(m.spans)
	for _, l := range traceLayers {
		if m.ops > 0 {
			m.layer["trace.self_us."+l] = float64(self[l]) / 1e3 / float64(m.ops)
		}
	}
	if traces != "" {
		if err := writeSpans(traces, wl.name, m.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		m.notes = append(m.notes, fmt.Sprintf("trace: %d spans written to %s/%s.csv", len(m.spans), traces, wl.name))
	}
	return m, nil
}
