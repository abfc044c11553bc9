package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/sig/serve"
)

// tier is one user tier of a serving mix, at cmd/sigserve's significances
// (gold 1.0, silver 0.7, bronze 0.3, batch 0.0), with its share of arrivals.
type tier struct {
	sig, share float64
}

// serveShape fixes one in-process serving workload.
type serveShape struct {
	name    string
	backend string
	scale   float64
	rate    float64 // open-loop arrivals per second
	// shards is the runtime count (1 = solo server); workers is set per
	// shard explicitly, never left to default to GOMAXPROCS.
	shards, workers int
	tiers           []tier
	sloMs           float64 // the workload's stated latency limit
	// targetLoad is the admission controller's load cap (0 = default 1).
	// Below 1 it keeps headroom, so an overloaded server sheds quality
	// before its queue grows.
	targetLoad float64
}

// The two serving workloads. README.md records why each exists. Both rates
// keep a wave's median wall time to a third of the 10 ms cadence or less
// (about 1.2 ms light, 3.2 ms overload). At twice these rates it was
// 2.7 ms and 5.4 ms, and CPU taken by other tenants of the host stretched
// waves into overruns and moved the median latency of identical runs by 20%
// (light) to several times (overload).
var (
	serveLight = serveShape{
		name: "serve-light", backend: "kmeans", scale: 0.1, rate: 10000,
		shards: 1, workers: 1,
		tiers: []tier{{1.0, 0.2}, {0.7, 0.4}, {0.3, 0.4}}, // gold, silver, bronze
		sloMs: 50,
	}
	serveOverload = serveShape{
		name: "serve-overload", backend: "sobel", scale: 0.25, rate: 12000,
		shards: 2, workers: 1,
		tiers: []tier{{1.0, 0.1}, {0.7, 0.3}, {0.3, 0.3}, {0.0, 0.3}}, // gold, silver, bronze, batch
		sloMs: 100, targetLoad: 0.35,
	}
)

const (
	// servePeriod is the wave cadence, pinned (MinPeriod = WavePeriod) so
	// the pacer never retimes below it. At the default floor of period/4
	// the cadence follows sub-millisecond wave times, and the runtime's
	// millisecond timer granularity and idle-CPU wake-ups, not the server,
	// then set the wave spacing and most of the latency.
	servePeriod = 10 * time.Millisecond
	// serveWarm is the open-loop lead-in excluded from every statistic.
	serveWarm = 500 * time.Millisecond
	// genTick is the generator's schedule grid: it wakes on tick
	// boundaries and submits every request due by then, so sleeping never
	// accumulates lateness across requests. The Go runtime on Linux waits
	// for timers in whole milliseconds when it is otherwise idle, so a
	// shorter tick would oversleep to the next millisecond anyway.
	genTick = time.Millisecond
	// handlerCalls is how many direct calls time each request handler.
	handlerCalls = 200
)

type serveInstance struct {
	shape   serveShape
	seed    uint64
	backend *harness.ServeBackend
	srv     *serve.Server
	// ring holds prebuilt requests: the generator reuses a free slot per
	// submission so it allocates nothing, and a slot is only reused after
	// its ticket completed, so no two in-flight requests share a handler's
	// output buffer.
	ring []serve.Request
}

func setupServe(cfg runConfig, shape serveShape) (instance, error) {
	b, err := harness.ServeBackendByName(shape.backend, shape.scale)
	if err != nil {
		return nil, err
	}
	c := serve.Config{Workers: shape.workers, WavePeriod: servePeriod, MinPeriod: servePeriod, TargetLoad: shape.targetLoad}
	if shape.shards > 1 {
		c.Shards = shape.shards
	}
	srv, err := serve.New(c)
	if err != nil {
		return nil, err
	}
	// In flight at once: at most the (default) queue limit plus one wave
	// admitted from it, plus completed tickets the collector has yet to
	// release.
	ring := make([]serve.Request, 2*serve.DefaultQueueLimit+256)
	for i := range ring {
		ring[i] = b.NewRequest(i)
	}
	return &serveInstance{shape: shape, seed: cfg.seed, backend: b, srv: srv, ring: ring}, nil
}

func (s *serveInstance) close() error { return s.srv.Close() }

// flight is a submitted request handed to the collector.
type flight struct {
	tk   *serve.Ticket
	k    int32
	slot int32
}

// outcomeFailed marks a request Submit refused.
const outcomeFailed = -1

// stream is one generated open-loop schedule and what became of it.
type stream struct {
	due      []int64 // offsets from the stream's base, ns
	tier     []uint8
	sent     []int64 // Submit called (ns since clockBase)
	admitted []int64 // Submit returned
	done     []int64 // completion seen by the collector
	outcome  []int8
	waveLat  []int32
}

// newStream draws n arrivals at the given rate, each uniformly jittered
// within its own interval (so due times never reorder), with seeded tiers.
func newStream(seed uint64, rate float64, n int, tiers []tier) *stream {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	st := &stream{
		due: make([]int64, n), tier: make([]uint8, n),
		sent: make([]int64, n), admitted: make([]int64, n), done: make([]int64, n),
		outcome: make([]int8, n), waveLat: make([]int32, n),
	}
	for k := range n {
		st.due[k] = int64((float64(k) + rng.Float64()) / rate * 1e9)
		u, acc := rng.Float64(), 0.0
		st.tier[k] = uint8(len(tiers) - 1)
		for i, t := range tiers {
			if acc += t.share; u < acc {
				st.tier[k] = uint8(i)
				break
			}
		}
	}
	return st
}

// windowSnap is the server and process state at one edge of the measured
// window.
type windowSnap struct {
	tot     serve.Totals
	tasks   int64
	busy    time.Duration
	mallocs uint64
	proc    procSnap
}

func (s *serveInstance) snap(traced bool) windowSnap {
	w := windowSnap{tot: s.srv.Totals(), tasks: s.srv.Stats().Submitted, busy: s.srv.Energy().Busy}
	if traced {
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		w.mallocs = mst.Mallocs
	}
	w.proc = snapProc()
	return w
}

// measure drives one open-loop stream: serveWarm of lead-in, then seconds
// of measured arrivals, then the drain. Untraced, the server paces itself
// (Start); traced, the benchmark runs the same PaceWave loop so that every
// wave's report is captured.
func (s *serveInstance) measure(seconds float64, traced bool) (*measurement, error) {
	sh := s.shape
	nWarm := int(sh.rate * serveWarm.Seconds())
	n := nWarm + int(sh.rate*seconds)
	st := newStream(s.seed, sh.rate, n, sh.tiers)
	m := newMeasurement()

	var genTr, colTr, paceTr *tracer
	if traced {
		genTr, colTr, paceTr = newTracer(n), newTracer(2*n), newTracer(int(4*seconds*1e3)+1024)
		timeHandlers(m, s.backend, s.ring[0])
	}

	free := make(chan int32, len(s.ring)) // one token per ring slot
	for i := range s.ring {
		free <- int32(i)
	}
	flights := make(chan flight, len(s.ring)) // never more in flight than slots
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for f := range flights {
			<-f.tk.Done()
			t := nowNs()
			st.done[f.k] = t
			st.outcome[f.k] = int8(f.tk.Outcome())
			st.waveLat[f.k] = int32(f.tk.WaveLatency())
			f.tk.Release()
			free <- f.slot
			id := int64(f.k+1) << 2
			colTr.record(id, 0, int64(f.k), "request", st.sent[f.k], t)
			colTr.record(id|2, id, int64(f.k), "serve.wait", st.admitted[f.k], t)
		}
	}()

	var waves []serve.WaveReport
	var waveT [][2]int64
	stopPace, paceDone := make(chan struct{}), make(chan struct{})
	if traced {
		waves = make([]serve.WaveReport, 0, int(2*seconds*1e3)+512)
		waveT = make([][2]int64, 0, cap(waves))
		go func() {
			defer close(paceDone)
			timer := time.NewTimer(s.srv.PacePeriod())
			defer timer.Stop()
			for {
				select {
				case <-stopPace:
					return
				case <-timer.C:
				}
				t0 := nowNs()
				rep, delay := s.srv.PaceWave()
				t1 := nowNs()
				waves = append(waves, rep)
				waveT = append(waveT, [2]int64{t0, t1})
				paceTr.record(1<<50+int64(len(waves)), 0, -1, "serve.wave", t0, t1)
				timer.Reset(delay)
			}
		}()
	} else {
		close(paceDone)
		s.srv.Start()
	}

	tierSig := make([]float64, len(sh.tiers))
	for i, t := range sh.tiers {
		tierSig[i] = t.sig
	}
	var w0 windowSnap
	base := nowNs() + int64(time.Millisecond)
	var genErr error
	for k := 0; k < n; {
		now := nowNs()
		for ; k < n && base+st.due[k] <= now; k++ {
			if k == nWarm {
				w0 = s.snap(traced)
			}
			var slot int32
			select {
			case slot = <-free:
			default:
				genErr = errors.New("request ring exhausted: more requests in flight than the queue limit allows")
			}
			if genErr != nil {
				break
			}
			req := s.ring[slot]
			req.Significance = tierSig[st.tier[k]]
			t0 := nowNs()
			tk, err := s.srv.Submit(req)
			t1 := nowNs()
			st.sent[k], st.admitted[k] = t0, t1
			id := int64(k+1) << 2
			genTr.record(id|1, id, int64(k), "serve.Submit", t0, t1)
			if err != nil {
				st.outcome[k] = outcomeFailed
				free <- slot
				continue
			}
			flights <- flight{tk: tk, k: int32(k), slot: slot}
		}
		if genErr != nil || k == n {
			break
		}
		// Sleep to the first tick boundary at or after the next arrival.
		next := st.due[k] + int64(genTick) - 1
		next -= next % int64(genTick)
		if d := base + next - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
	close(flights)
	collector.Wait()
	var w1 windowSnap
	if genErr == nil {
		w1 = s.snap(traced)
	}
	measuredPeriod := s.srv.MeasuredPeriod()
	shards := s.shardMetrics()
	close(stopPace)
	<-paceDone
	if err := s.srv.Close(); err != nil {
		return nil, err
	}
	if genErr != nil {
		return nil, genErr
	}
	s.check(m, st)

	// Statistics over the measured requests [nWarm, n).
	windowStart, windowEnd := base+st.due[nWarm], int64(0)
	var lat, late, submit, wait, waveLat []float64
	served, accurate, within := 0, 0, 0
	for k := nWarm; k < n; k++ {
		late = append(late, float64(st.sent[k]-base-st.due[k])/1e6)
		submit = append(submit, float64(st.admitted[k]-st.sent[k]))
		if st.outcome[k] == outcomeFailed || serve.Outcome(st.outcome[k]) == serve.OutcomeTimedOut {
			continue
		}
		served++
		l := float64(st.done[k]-base-st.due[k]) / 1e6
		lat = append(lat, l)
		if l <= sh.sloMs {
			within++
		}
		if serve.Outcome(st.outcome[k]) == serve.OutcomeAccurate {
			accurate++
		}
		wait = append(wait, float64(st.done[k]-st.admitted[k])/1e6)
		waveLat = append(waveLat, float64(st.waveLat[k]))
		windowEnd = max(windowEnd, st.done[k])
	}
	measured := n - nWarm
	m.attempted += measured
	m.failed += measured - served
	window := float64(windowEnd-windowStart) / 1e9
	ld := newDist(lat)
	joules := w1.tot.Joules - w0.tot.Joules
	completed := float64(w1.tot.Completed - w0.tot.Completed)

	// A pass is one second of scheduled arrivals; its wall time runs from
	// its first due time to its last completion.
	var passWall []float64
	var passLat [][]float64
	perPass := int(sh.rate)
	for lo := nWarm; lo+perPass <= n; lo += perPass {
		last := int64(0)
		var pl []float64
		for k := lo; k < lo+perPass; k++ {
			last = max(last, st.done[k])
			if st.outcome[k] != outcomeFailed && serve.Outcome(st.outcome[k]) != serve.OutcomeTimedOut {
				pl = append(pl, float64(st.done[k]-base-st.due[k])/1e6)
			}
		}
		passWall = append(passWall, float64(last-base-st.due[lo])/1e9)
		passLat = append(passLat, pl)
	}

	e := m.e2e
	e["wall_s"] = median(passWall)
	var passP99 float64
	e["latency_p50_ms"], passP99 = passPercentiles(passLat)
	e["joules_per_req"] = joules / completed
	e["joules_per_pass"] = e["joules_per_req"] * float64(perPass)
	e["req_per_s"] = float64(served) / window
	e["within_slo_share"] = float64(within) / float64(measured)
	e["accurate_share"] = float64(accurate) / float64(measured)
	e["served_share"] = float64(served) / float64(measured)

	cpu, util, gcShare := w0.proc.usage(w1.proc, runtime.GOMAXPROCS(0))
	m.cpuPerOp = cpu.Seconds() / float64(measured)
	m.ops = measured
	l := m.layer
	l["proc.cpu_util"] = util
	l["go.gc_cpu_share"] = gcShare
	l["sig.tasks_per_s"] = float64(w1.tasks-w0.tasks) / window
	l["sig.busy_share"] = (w1.busy - w0.busy).Seconds() / (window * float64(sh.shards*sh.workers))
	l["gen.late_ms_p99"] = newDist(late).at(0.99)
	l["gen.sent"] = float64(measured)
	l["serve.rejected"] = float64(w1.tot.Rejected - w0.tot.Rejected)
	l["serve.timedout"] = float64(w1.tot.TimedOut - w0.tot.TimedOut)
	l["serve.measured_period_ms"] = ms(measuredPeriod)
	l["serve.wave_latency_waves_p99"] = newDist(waveLat).at(0.99)
	for k, v := range shards {
		l[k] = v
	}
	if traced {
		sd := newDist(submit)
		l["serve.submit_ns_p50"], l["serve.submit_ns_p99"] = sd.p50, sd.at(0.99)
		l["serve.ticket_wait_ms_p50"] = median(wait)
		l["serve.allocs_per_req"] = float64(w1.mallocs-w0.mallocs) / float64(measured)
		s.waveMetrics(m, waves, waveT, windowStart, windowEnd)
		m.spans = spansOf(genTr, colTr, paceTr)
	}
	m.notes = append(m.notes, fmt.Sprintf(
		"%s: %s backend scale %.2f at %.0f req/s, %d shard(s) x %d worker(s); latency n=%d p50=%.3fms p99=%.3fms p%g=%.3fms (limit %gms); median pass p99=%.3fms",
		sh.name, sh.backend, sh.scale, sh.rate, sh.shards, sh.workers, ld.n, ld.p50, ld.at(0.99), 100*ld.tailQ, ld.tail, sh.sloMs, passP99))
	return m, nil
}

// shardMetrics reads the fleet's per-shard accounting: busy time and
// tasks, max over mean, and the live shard count. A solo server is one
// perfectly balanced shard.
func (s *serveInstance) shardMetrics() map[string]float64 {
	out := map[string]float64{"shard.live": 1, "shard.busy_imbalance": 1, "shard.tasks_imbalance": 1}
	fleet := s.srv.Fleet()
	if fleet == nil {
		return out
	}
	var busy, tasks []float64
	for _, r := range fleet.ShardEnergy() {
		busy = append(busy, r.Busy.Seconds())
	}
	for _, st := range fleet.ShardStats() {
		tasks = append(tasks, float64(st.Submitted))
	}
	out["shard.live"] = float64(fleet.Live())
	out["shard.busy_imbalance"] = imbalance(busy)
	out["shard.tasks_imbalance"] = imbalance(tasks)
	return out
}

// waveMetrics summarizes the paced waves that started inside the window.
func (s *serveInstance) waveMetrics(m *measurement, waves []serve.WaveReport, waveT [][2]int64, lo, hi int64) {
	var wall, ratio, load, next []float64
	admitted, overruns, n := 0, 0, 0
	for i, rep := range waves {
		if waveT[i][0] < lo || waveT[i][0] > hi {
			continue
		}
		n++
		wall = append(wall, float64(waveT[i][1]-waveT[i][0])/1e6)
		admitted += rep.Admitted
		if rep.Overrun {
			overruns++
		}
		next = append(next, rep.NextRatio)
		if rep.Admitted > 0 {
			ratio = append(ratio, rep.Ratio)
			load = append(load, rep.Load)
		}
	}
	if n == 0 {
		m.problems = append(m.problems, "no paced wave ran inside the measured window")
		return
	}
	l := m.layer
	wd := newDist(wall)
	l["serve.wave_wall_ms_p50"], l["serve.wave_wall_ms_p99"] = wd.p50, wd.at(0.99)
	l["serve.waves_per_s"] = float64(n) / (float64(hi-lo) / 1e9)
	l["serve.req_per_wave"] = float64(admitted) / float64(n)
	l["serve.overrun_share"] = float64(overruns) / float64(n)
	l["adapt.ratio_mean"] = mean(ratio)
	l["adapt.ratio_min"] = math.Inf(1)
	for _, r := range ratio {
		l["adapt.ratio_min"] = min(l["adapt.ratio_min"], r)
	}
	if len(ratio) == 0 {
		l["adapt.ratio_min"] = 0
	}
	l["adapt.load_mean"] = mean(load)
	l["adapt.ratio_reversals"] = float64(reversals(next))
}

// timeHandlers times a backend request's bodies called directly: the
// kernel's own cost, free of any serving layer.
func timeHandlers(m *measurement, b *harness.ServeBackend, req serve.Request) {
	for _, h := range []struct {
		name string
		fn   func()
	}{{"accurate", req.Handler}, {"degraded", req.Degraded}} {
		d := make([]float64, handlerCalls)
		for i := range d {
			t0 := nowNs()
			h.fn()
			d[i] = float64(nowNs()-t0) / 1e3
		}
		m.layer[fmt.Sprintf("kernel.handler_us.%s.%s", b.Name, h.name)] = median(d)
	}
}

// check holds the serving contract over the whole stream: outcomes
// conserve, the benchmark's own tally agrees with Totals, and the special
// tiers got what the serving layer promises them.
func (s *serveInstance) check(m *measurement, st *stream) {
	tot := s.srv.Totals()
	var seen [4]int64
	var rejected int64
	for k, o := range st.outcome {
		if o == outcomeFailed {
			rejected++
			continue
		}
		seen[o]++
		sig := s.shape.tiers[st.tier[k]].sig
		if sig == 1 && serve.Outcome(o) != serve.OutcomeAccurate {
			m.problems = append(m.problems, fmt.Sprintf("request %d at significance 1 served %v", k, serve.Outcome(o)))
			return
		}
		if sig == 0 && serve.Outcome(o) == serve.OutcomeAccurate {
			m.problems = append(m.problems, fmt.Sprintf("request %d at significance 0 served accurately", k))
			return
		}
	}
	acc, deg, drop, to := seen[serve.OutcomeAccurate], seen[serve.OutcomeDegraded], seen[serve.OutcomeDropped], seen[serve.OutcomeTimedOut]
	switch {
	case tot.Accurate+tot.Degraded+tot.Dropped+tot.TimedOut != tot.Completed:
		m.problems = append(m.problems, fmt.Sprintf("Totals do not conserve: %+v", tot))
	case tot.Submitted != int64(len(st.outcome)) || tot.Rejected != rejected:
		m.problems = append(m.problems, fmt.Sprintf("Totals submitted/rejected %d/%d, sent %d with %d refused",
			tot.Submitted, tot.Rejected, len(st.outcome), rejected))
	case acc != tot.Accurate || deg != tot.Degraded || drop != tot.Dropped || to != tot.TimedOut:
		m.problems = append(m.problems, fmt.Sprintf("tickets saw %d/%d/%d/%d accurate/degraded/dropped/timed-out, Totals %d/%d/%d/%d",
			acc, deg, drop, to, tot.Accurate, tot.Degraded, tot.Dropped, tot.TimedOut))
	}
}
