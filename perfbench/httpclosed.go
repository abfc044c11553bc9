package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/harness"
)

// The http-closed workload: httpClients keep-alive clients in a closed loop
// against the real sigserve binary on loopback. README.md records why.
const (
	httpClients = 2
	httpScale   = 0.05 // small sobel thumbnails: the front end is a large share
	httpWorkers = 1
	httpPeriod  = 2 * time.Millisecond // pinned, as on the serving workloads (see servePeriod)
	httpPass    = 1000                 // round trips per pass
	httpSLOms   = 20
	httpWarm    = 300 * time.Millisecond
	httpStartup = 20 * time.Second
)

// httpTiers are the tiers the clients cycle through, each from a seeded
// starting offset.
var httpTiers = []struct {
	name string
	sig  float64
}{{"gold", 1.0}, {"silver", 0.7}, {"bronze", 0.3}, {"batch", 0.0}}

type httpInstance struct {
	seed   uint64
	cpus   int
	cmd    *exec.Cmd
	exited chan struct{}
	stderr *syncBuffer
	base   string
	client *http.Client
}

// syncBuffer collects the server's log output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// setupHTTP starts sigserve on a free loopback port and waits until it
// answers /healthz.
func setupHTTP(cfg runConfig) (instance, error) {
	if cfg.sigserve == "" {
		return nil, errors.New("http-closed needs -sigserve")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	h := &httpInstance{seed: cfg.seed, cpus: cfg.cpus, exited: make(chan struct{}), stderr: &syncBuffer{}, base: "http://" + addr}
	h.cmd = exec.Command(cfg.sigserve, "-addr", addr, "-backend", "sobel",
		"-scale", fmt.Sprint(httpScale), "-workers", fmt.Sprint(httpWorkers),
		"-period", httpPeriod.String(), "-min-period", httpPeriod.String())
	h.cmd.Stdout, h.cmd.Stderr = h.stderr, h.stderr
	// Should the benchmark die without closing it, the kernel kills the
	// server too.
	h.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := h.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = h.cmd.Wait() // the exit status is reported through close's checks
		close(h.exited)
	}()
	h.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: httpClients, MaxConnsPerHost: httpClients, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
	deadline := time.Now().Add(httpStartup)
	for {
		resp, err := h.client.Get(h.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return h, nil
			}
		}
		select {
		case <-h.exited:
			return nil, fmt.Errorf("sigserve exited during start-up: %s", h.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = h.close()
			return nil, fmt.Errorf("sigserve did not answer /healthz within %v", httpStartup)
		}
	}
}

// close stops the server with SIGTERM (a graceful drain) and waits for it.
func (h *httpInstance) close() error {
	h.client.CloseIdleConnections()
	select {
	case <-h.exited:
		return nil
	default:
	}
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.exited:
		return nil
	case <-time.After(10 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.exited
		return errors.New("sigserve ignored SIGTERM for 10s and was killed")
	}
}

// stats is the subset of /stats the benchmark reads.
type stats struct {
	LiveShards       int     `json:"live_shards"`
	Load             float64 `json:"load"`
	Waves            int64   `json:"waves"`
	Overruns         int64   `json:"overruns"`
	MeasuredPeriodMs float64 `json:"measured_period_ms"`
	Submitted        int64   `json:"submitted"`
	Rejected         int64   `json:"rejected"`
	Completed        int64   `json:"completed"`
	Accurate         int64   `json:"accurate"`
	Degraded         int64   `json:"degraded"`
	Dropped          int64   `json:"dropped"`
	TimedOut         int64   `json:"timedout"`
	Joules           float64 `json:"joules"`
}

func (h *httpInstance) stats() (stats, error) {
	var s stats
	resp, err := h.client.Get(h.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/stats: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// workResp is the /work response body.
type workResp struct {
	Outcome      string   `json:"outcome"`
	Significance *float64 `json:"significance"`
	WaveLatency  int      `json:"wave_latency"`
	LatencyMs    *float64 `json:"latency_ms"`
	CurrentRatio float64  `json:"current_ratio"`
}

// roundTrip is one client request and what came back.
type roundTrip struct {
	start, end int64 // ns, clockBase
	status     int
	bytes      int
	outcome    string
	serverMs   float64
	waveLat    int
	ratio      float64
}

// runClient runs one closed-loop client until stop, cycling tiers from a
// seeded offset.
func (h *httpInstance) runClient(offset int, stop int64, out *[]roundTrip, problems *[]string) {
	urls := make([]string, len(httpTiers))
	for i, t := range httpTiers {
		urls[i] = h.base + "/work?tier=" + t.name
	}
	for i := offset; nowNs() < stop; i++ {
		ti := i % len(httpTiers)
		rt := roundTrip{start: nowNs()}
		resp, err := h.client.Get(urls[ti])
		if err != nil {
			*problems = append(*problems, fmt.Sprintf("GET /work: %v", err))
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rt.end = nowNs()
		if err != nil {
			*problems = append(*problems, fmt.Sprintf("read /work: %v", err))
			return
		}
		rt.status, rt.bytes = resp.StatusCode, len(body)
		if rt.status == http.StatusOK {
			if err := parseWork(body, httpTiers[ti].sig, &rt); err != nil {
				*problems = append(*problems, err.Error())
				return
			}
		}
		*out = append(*out, rt)
	}
}

// parseWork checks one 200 response against the serving contract and fills
// rt from it.
func parseWork(body []byte, sig float64, rt *roundTrip) error {
	var w workResp
	if err := json.Unmarshal(body, &w); err != nil {
		return fmt.Errorf("/work response does not parse: %v: %q", err, body)
	}
	switch {
	case w.LatencyMs == nil || w.Significance == nil:
		return fmt.Errorf("/work response lacks latency_ms or significance: %q", body)
	case *w.Significance != sig:
		return fmt.Errorf("/work served significance %v, asked %v", *w.Significance, sig)
	case w.Outcome != "accurate" && w.Outcome != "degraded" && w.Outcome != "dropped":
		return fmt.Errorf("/work outcome %q", w.Outcome)
	case sig == 1 && w.Outcome != "accurate":
		return fmt.Errorf("/work at significance 1 served %s", w.Outcome)
	case sig == 0 && w.Outcome == "accurate":
		return errors.New("/work at significance 0 served accurately")
	}
	rt.outcome, rt.serverMs, rt.waveLat, rt.ratio = w.Outcome, *w.LatencyMs, w.WaveLatency, w.CurrentRatio
	return nil
}

func (h *httpInstance) measure(seconds float64, traced bool) (*measurement, error) {
	m := newMeasurement()
	if traced {
		b := harness.SobelServeBackend(httpScale)
		timeHandlers(m, b, b.NewRequest(0))
	}
	pid := h.cmd.Process.Pid
	// Server-side counters span the whole run, warm-up included, so they
	// can be held against every response; client-side statistics cover the
	// round trips started after the warm-up.
	s0, err := h.stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	p0 := snapProc()
	start := nowNs()
	warmEnd := start + int64(httpWarm)
	stop := warmEnd + int64(seconds*1e9)
	var (
		wg       sync.WaitGroup
		trips    [httpClients][]roundTrip
		problems [httpClients][]string
	)
	for c := range httpClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trips[c] = make([]roundTrip, 0, int(seconds*10000))
			h.runClient(int(h.seed)+c, stop, &trips[c], &problems[c])
		}()
	}
	wg.Wait()
	windowEnd := nowNs()
	p1 := snapProc()
	cpu1, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	s1, err := h.stats()
	if err != nil {
		return nil, err
	}
	rss, err := pidPeakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		m.problems = append(m.problems, p...)
	}

	var all []roundTrip
	counts := map[string]int64{}
	served := 0
	for _, t := range trips {
		for _, rt := range t {
			if rt.status == http.StatusOK {
				counts[rt.outcome]++
				served++
			}
			if rt.start >= warmEnd {
				all = append(all, rt)
			}
		}
	}
	if len(all) == 0 || served == 0 {
		return nil, errors.New("http-closed: no round trip completed in the window")
	}
	m.checkStats(s0, s1, counts, served)
	slices.SortFunc(all, func(a, b roundTrip) int { return cmp.Compare(a.end, b.end) })
	var rtt, front, server, waveLat, ratio []float64
	passLat := make([][]float64, len(all)/httpPass)
	ok, accurate, within, bytesTotal := 0, 0, 0, 0
	var tr *tracer
	if traced {
		tr = newTracer(2 * len(all))
	}
	for i, rt := range all {
		bytesTotal += rt.bytes
		if rt.status != http.StatusOK {
			continue
		}
		ok++
		l := float64(rt.end-rt.start) / 1e6
		rtt = append(rtt, l)
		if p := i / httpPass; p < len(passLat) {
			passLat[p] = append(passLat[p], l)
		}
		front = append(front, l-rt.serverMs)
		server = append(server, rt.serverMs)
		waveLat = append(waveLat, float64(rt.waveLat))
		ratio = append(ratio, rt.ratio)
		if l <= httpSLOms {
			within++
		}
		if rt.outcome == "accurate" {
			accurate++
		}
		// The server's part is known by its reported duration only; it is
		// placed at the end of the round trip.
		id := int64(i+1) << 1
		tr.record(id, 0, int64(i), "rtt", rt.start, rt.end)
		tr.record(id|1, id, int64(i), "sigserve.work", rt.end-int64(rt.serverMs*1e6), rt.end)
	}
	m.attempted, m.failed = len(all), len(all)-ok
	if ok == 0 {
		return nil, errors.New("http-closed: no round trip after the warm-up succeeded")
	}

	window := float64(windowEnd-warmEnd) / 1e9
	completed := float64(s1.Completed - s0.Completed)
	var passWall []float64
	prev := warmEnd
	for j := httpPass - 1; j < len(all); j += httpPass {
		passWall = append(passWall, float64(all[j].end-prev)/1e9)
		prev = all[j].end
	}
	if len(passWall) == 0 {
		return nil, fmt.Errorf("http-closed: %d round trips in the window, fewer than one pass of %d", len(all), httpPass)
	}
	ld := newDist(rtt)
	e := m.e2e
	e["peak_rss_mb"] = rss
	e["wall_s"] = median(passWall)
	e["joules_per_req"] = (s1.Joules - s0.Joules) / completed
	e["joules_per_pass"] = e["joules_per_req"] * httpPass
	e["req_per_s"] = float64(ok) / window
	var passP99 float64
	e["latency_p50_ms"], passP99 = passPercentiles(passLat)
	e["within_slo_share"] = float64(within) / float64(len(all))
	e["accurate_share"] = float64(accurate) / float64(len(all))
	e["served_share"] = float64(ok) / float64(len(all))

	serverCPU := (cpu1 - cpu0).Seconds()
	clientCPU, util, gcShare := p0.usage(p1, h.cpus)
	m.ops = served
	m.cpuPerOp = (clientCPU.Seconds() + serverCPU) / float64(served)
	l := m.layer
	fd := newDist(front)
	l["sigserve.frontend_ms_p50"], l["sigserve.frontend_ms_p99"] = fd.p50, fd.at(0.99)
	l["sigserve.server_ms_p50"] = median(server)
	l["sigserve.cpu_ms_per_req"] = serverCPU * 1e3 / float64(served)
	l["sigserve.resp_bytes"] = float64(bytesTotal) / float64(len(all))
	waves := float64(s1.Waves - s0.Waves)
	l["serve.waves_per_s"] = waves / (float64(windowEnd-start) / 1e9)
	if waves > 0 {
		l["serve.req_per_wave"] = completed / waves
		l["serve.overrun_share"] = float64(s1.Overruns-s0.Overruns) / waves
	}
	l["serve.measured_period_ms"] = s1.MeasuredPeriodMs
	l["serve.rejected"] = float64(s1.Rejected - s0.Rejected)
	l["serve.timedout"] = float64(s1.TimedOut - s0.TimedOut)
	l["serve.wave_latency_waves_p99"] = newDist(waveLat).at(0.99)
	l["adapt.ratio_mean"] = mean(ratio)
	l["adapt.ratio_min"] = slices.Min(ratio)
	l["adapt.load_mean"] = (s0.Load + s1.Load) / 2
	l["adapt.ratio_reversals"] = float64(reversals(ratio))
	l["shard.live"] = float64(s1.LiveShards)
	l["shard.busy_imbalance"], l["shard.tasks_imbalance"] = 1, 1
	// Client and server CPU over both processes' share of the host.
	l["proc.cpu_util"] = util + serverCPU/(float64(windowEnd-start)/1e9*float64(h.cpus))
	l["go.gc_cpu_share"] = gcShare
	m.spans = spansOf(tr)
	m.notes = append(m.notes, fmt.Sprintf(
		"http-closed: %d clients, sigserve sobel scale %.2f, %d worker, period %v; round trips n=%d p50=%.3fms p99=%.3fms p%g=%.3fms (limit %dms); median pass p99=%.3fms",
		httpClients, httpScale, httpWorkers, httpPeriod, ld.n, ld.p50, ld.at(0.99), 100*ld.tailQ, ld.tail, httpSLOms, passP99))
	return m, nil
}

// checkStats holds /stats to the serving contract over the window: outcomes
// conserve, and the server's tally matches the responses the clients got.
func (m *measurement) checkStats(s0, s1 stats, seen map[string]int64, ok int) {
	d := func(a, b int64) int64 { return b - a }
	acc, deg, drop, to := d(s0.Accurate, s1.Accurate), d(s0.Degraded, s1.Degraded), d(s0.Dropped, s1.Dropped), d(s0.TimedOut, s1.TimedOut)
	if s1.Accurate+s1.Degraded+s1.Dropped+s1.TimedOut != s1.Completed {
		m.problems = append(m.problems, fmt.Sprintf("/stats does not conserve: %+v", s1))
	}
	if acc != seen["accurate"] || deg != seen["degraded"] || drop != seen["dropped"] || to != 0 {
		m.problems = append(m.problems, fmt.Sprintf("/stats counted %d/%d/%d/%d accurate/degraded/dropped/timed-out in the window, clients saw %v",
			acc, deg, drop, to, seen))
	}
	if d(s0.Completed, s1.Completed) != int64(ok) {
		m.problems = append(m.problems, fmt.Sprintf("/stats completed %d in the window, clients got %d responses", d(s0.Completed, s1.Completed), ok))
	}
}
