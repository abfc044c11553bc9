package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one operation share req; parent is the id of the span
// that caused this one (0 for a root). Times are nanoseconds since
// clockBase.
type span struct {
	id, parent int64
	req        int64
	name       string
	start, end int64
}

// spanLayers maps each span name onto the module whose code runs inside it
// (minus its child spans). Self time is reported per layer.
var spanLayers = map[string]string{
	"pass":          "bench",
	"cell":          "bench",
	"request":       "bench",
	"rtt":           "sigserve", // client round trip minus the server's part: the HTTP front end
	"sig.New":       "sig",
	"sig.Run":       "sig", // scheduler, policy and kernel bodies together
	"sig.Close":     "sig",
	"quality":       "kernel",
	"serve.Submit":  "serve",
	"serve.wait":    "serve_wait", // a ticket waiting for its wave
	"serve.wave":    "serve",      // admission, adapt, shard routing and the wave's tasks
	"sigserve.work": "serve",      // the server-reported handling time of one /work request
}

// traceLayers lists the layers of spanLayers in report order.
var traceLayers = []string{"bench", "sigserve", "serve", "serve_wait", "sig", "kernel"}

// clockBase is the origin of every span time.
var clockBase = time.Now()

// nowNs reads the monotonic clock as nanoseconds since clockBase.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// tracer keeps spans in memory for one goroutine; merge the tracers of a
// run with spansOf. A nil *tracer records nothing, so untraced runs pay one
// nil check per span site.
type tracer struct {
	spans []span
}

// newTracer preallocates room for n spans so recording does not allocate in
// steady state.
func newTracer(n int) *tracer {
	return &tracer{spans: make([]span, 0, n)}
}

func (t *tracer) record(id, parent, req int64, name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
}

// spansOf merges the spans of several tracers (nil ones skipped).
func spansOf(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		if t != nil {
			out = append(out, t.spans...)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) []int64 {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := idx[s.parent]; ok && s.parent != 0 {
			kids[p] = append(kids[p], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s.start, s.end, kids[i])
	}
	return self
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelf sums self time per layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range selfTimes(spans) {
		out[spanLayers[spans[i].name]] += d
	}
	return out
}

// writeSpans writes spans as CSV (id,parent,req,name,start_ns,end_ns) to
// dir/name.csv.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
