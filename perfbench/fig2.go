package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/harness"
	"repro/sig"
)

// fig2Scale sizes every kernel: large enough that kernel bodies dominate a
// cell (the paper's own experiment), small enough for several passes in a
// run.
const fig2Scale = 0.25

// fig2PassLimit is fig2-batch's latency limit for one pass of the 18
// cells, which takes about half a second.
const fig2PassLimit = 5 * time.Second

// fig2Kernel is one sized Table 1 problem and its sequential reference.
type fig2Kernel struct {
	name  string
	spec  harness.Spec
	inst  harness.Instance
	ref   any
	seqMs float64
}

type fig2Instance struct {
	seed    uint64
	workers int
	kernels []fig2Kernel
}

// setupFig2 sizes the six kernels and computes their sequential reference
// outputs (the independent oracle every cell's quality is measured against).
func setupFig2(cfg runConfig) (instance, error) {
	f := &fig2Instance{seed: cfg.seed, workers: cfg.cpus}
	for _, name := range fig2Kernels {
		spec, ok := harness.SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("fig2: no kernel %q", name)
		}
		inst := spec.Make(fig2Scale)
		t0 := time.Now()
		ref := inst.Reference()
		f.kernels = append(f.kernels, fig2Kernel{name: name, spec: spec, inst: inst, ref: ref, seqMs: ms(time.Since(t0))})
	}
	return f, nil
}

func (f *fig2Instance) close() error { return nil }

// cellResult is one executed cell.
type cellResult struct {
	kernel            int
	mode              harness.Mode
	newD, runD, close time.Duration
	joules, quality   float64
	requested         float64
	provided          float64
	submitted         int64
	accurate, decided int64
	busy              time.Duration
}

func (c cellResult) latency() time.Duration { return c.newD + c.runD + c.close }

// runCell executes one kernel under one policy at Medium degree, the calls
// harness.Execute makes, timed one by one.
func (f *fig2Instance) runCell(k int, mode harness.Mode, tr *tracer, cellID, passID int64) (cellResult, error) {
	kn := &f.kernels[k]
	c := cellResult{kernel: k, mode: mode, requested: 1}
	if mode != harness.ModeAccurate {
		c.requested = kn.spec.Ratios[harness.Medium]
	}
	kind, err := mode.PolicyKind()
	if err != nil {
		return c, err
	}
	t0 := nowNs()
	rt, err := sig.New(sig.Config{Workers: f.workers, Policy: kind})
	if err != nil {
		return c, err
	}
	t1 := nowNs()
	out := kn.inst.Run(rt, c.requested)
	t2 := nowNs()
	if err := rt.Close(); err != nil {
		return c, err
	}
	t3 := nowNs()
	rep, st := rt.Energy(), rt.Stats()
	c.quality = kn.inst.Quality(kn.ref, out)
	t4 := nowNs()
	c.newD, c.runD, c.close = time.Duration(t1-t0), time.Duration(t2-t1), time.Duration(t3-t2)
	c.joules, c.busy, c.submitted = rep.Joules, rep.Busy, st.Submitted
	c.accurate, c.decided = st.Accurate, st.Accurate+st.Approximate+st.Dropped
	if c.decided > 0 {
		c.provided = float64(c.accurate) / float64(c.decided)
	}
	tr.record(cellID, passID, cellID, "cell", t0, t4)
	tr.record(cellID<<3|1, cellID, cellID, "sig.New", t0, t1)
	tr.record(cellID<<3|2, cellID, cellID, "sig.Run", t1, t2)
	tr.record(cellID<<3|3, cellID, cellID, "sig.Close", t2, t3)
	tr.record(cellID<<3|4, cellID, cellID, "quality", t3, t4)
	return c, nil
}

// measure runs passes of all 18 cells, closed loop, in a seeded order per
// pass, until seconds have elapsed (and at least three passes ran).
func (f *fig2Instance) measure(seconds float64, traced bool) (*measurement, error) {
	m := newMeasurement()
	var tr *tracer
	if traced {
		tr = newTracer(4096)
	}
	rng := rand.New(rand.NewPCG(f.seed, 0xf162))
	type cellKey struct {
		k int
		m harness.Mode
	}
	var order []cellKey
	for k := range f.kernels {
		for _, mode := range fig2Modes {
			order = append(order, cellKey{k, mode})
		}
	}
	var (
		cells      []cellResult
		passWall   []float64
		passJoules []float64
	)
	start := time.Now()
	p0 := snapProc()
	for pass := 0; pass < 3 || time.Since(start).Seconds() < seconds; pass++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		passID := int64(pass+1) << 20
		ps := nowNs()
		t0 := time.Now()
		joules, failed := 0.0, false
		for i, ck := range order {
			c, err := f.runCell(ck.k, ck.m, tr, passID+int64(i+1)<<4, passID)
			if err != nil {
				return nil, fmt.Errorf("fig2 %s/%s: %w", f.kernels[ck.k].name, ck.m, err)
			}
			if err := f.check(c); err != nil {
				failed = true
				m.problems = append(m.problems, err.Error())
			}
			cells = append(cells, c)
			joules += c.joules
		}
		passWall = append(passWall, time.Since(t0).Seconds())
		passJoules = append(passJoules, joules)
		tr.record(passID, 0, passID, "pass", ps, nowNs())
		m.attempted++
		if failed {
			m.failed++
		}
	}
	elapsed := time.Since(start).Seconds()
	passes := len(passWall)
	cpu, util, gcShare := p0.usage(snapProc(), f.workers)
	m.cpuPerOp = cpu.Seconds() / float64(passes)

	var lat, runWall []float64
	var accurate, decided, submitted int64
	var busy time.Duration
	for _, c := range cells {
		lat = append(lat, ms(c.latency()))
		runWall = append(runWall, c.runD.Seconds())
		accurate += c.accurate
		decided += c.decided
		submitted += c.submitted
		busy += c.busy
	}
	ld := newDist(lat)
	within := 0
	for _, w := range passWall {
		if w <= fig2PassLimit.Seconds() {
			within++
		}
	}
	// An operation is a pass: the batch job the paper's Fig. 2 times.
	// Cell latencies form 18 separate clusters, so their median jumps
	// between neighbouring cells from run to run; they are printed, and
	// reported per cell as sig.run_ms.
	e := m.e2e
	e["wall_s"] = median(passWall)
	e["latency_p50_ms"] = 1e3 * median(passWall)
	e["req_per_s"] = float64(passes) / elapsed
	e["joules_per_pass"] = median(passJoules)
	e["joules_per_req"] = median(passJoules)
	e["within_slo_share"] = float64(within) / float64(passes)
	e["accurate_share"] = float64(accurate) / float64(decided)
	e["served_share"] = float64(m.attempted-m.failed) / float64(m.attempted)

	l := m.layer
	errs := map[harness.Mode][]float64{}
	for k, kn := range f.kernels {
		var accRun float64
		for _, mode := range fig2Modes {
			var runs []float64
			for _, c := range cells {
				if c.kernel == k && c.mode == mode {
					runs = append(runs, ms(c.runD))
					if mode != harness.ModeAccurate {
						errs[mode] = append(errs[mode], math.Abs(c.provided-c.requested))
					}
				}
			}
			l[fmt.Sprintf("sig.run_ms.%s.%s", kn.name, mode)] = median(runs)
			if mode == harness.ModeAccurate {
				accRun = median(runs)
			}
		}
		l["sig.speedup."+kn.name] = kn.seqMs / accRun
		l["kernel.seq_ms."+kn.name] = kn.seqMs
	}
	l["sig.ratio_err"] = mean(append(slices.Clone(errs[harness.ModeGTB]), errs[harness.ModeLQH]...))
	l["sig.ratio_err.GTB"] = mean(errs[harness.ModeGTB])
	l["sig.ratio_err.LQH"] = mean(errs[harness.ModeLQH])
	totalRun := 0.0
	for _, r := range runWall {
		totalRun += r
	}
	l["sig.tasks_per_s"] = float64(submitted) / totalRun
	l["sig.busy_share"] = busy.Seconds() / (totalRun * float64(f.workers))
	l["proc.cpu_util"] = util
	l["go.gc_cpu_share"] = gcShare
	m.spans = spansOf(tr)
	m.ops = passes
	q1, med, q3 := quartiles(passWall)
	m.notes = append(m.notes,
		fmt.Sprintf("fig2-batch: %d passes of %d cells at scale %.2f, %d workers; pass wall q1/median/q3 %.4f/%.4f/%.4f s; cell latency n=%d p50=%.3fms p99=%.3fms p%g=%.3fms",
			passes, len(order), fig2Scale, f.workers, q1, med, q3, ld.n, ld.p50, ld.at(0.99), 100*ld.tailQ, ld.tail))
	return m, nil
}

// check compares a cell against its golden record: Accurate and GTB cells
// are deterministic (declared task costs, a deterministic policy), so their
// quality, modeled joules and provided ratio must match exactly; LQH cells
// must stay inside their stated bands.
func (f *fig2Instance) check(c cellResult) error {
	name := f.kernels[c.kernel].name
	g, ok := fig2Golden[name+"/"+string(c.mode)]
	if !ok {
		return fmt.Errorf("fig2 %s/%s: no golden record", name, c.mode)
	}
	if c.mode == harness.ModeLQH {
		if c.quality < 0 || c.quality > g.quality {
			return fmt.Errorf("fig2 %s/LQH: quality %v outside [0, %v]", name, c.quality, g.quality)
		}
		if d := math.Abs(c.provided - c.requested); d > g.provided {
			return fmt.Errorf("fig2 %s/LQH: |provided-requested| %v above %v", name, d, g.provided)
		}
		return nil
	}
	if c.quality != g.quality || c.joules != g.joules || c.provided != g.provided {
		return fmt.Errorf("fig2 %s/%s: got quality %v joules %v provided %v, want %v %v %v",
			name, c.mode, c.quality, c.joules, c.provided, g.quality, g.joules, g.provided)
	}
	return nil
}
