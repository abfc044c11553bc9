package sig

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSmallWaveSpreadsOverWorkers checks that a GTB wave smaller than the
// buffering window, flushed to the queues as one batch at Wait, runs on
// more than one worker. Each body holds its worker until a second body is
// running alongside it or a shared deadline passes, so bodies that all run
// on one worker leave the peak at 1.
func TestSmallWaveSpreadsOverWorkers(t *testing.T) {
	rt := newRT(t, Config{Workers: 2, Policy: PolicyGTB})
	defer rt.Close()
	var active, peak atomic.Int32
	deadline := time.Now().Add(3 * time.Second)
	body := func() {
		cur := active.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		for peak.Load() < 2 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		active.Add(-1)
	}
	grp := rt.Group("wave", 0.5)
	for i := 0; i < 8; i++ {
		rt.Submit(body, WithLabel(grp), WithSignificance(float64(i+1)/10), WithApprox(body))
	}
	done := make(chan struct{})
	go func() {
		rt.Wait(grp)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("wave did not finish")
	}
	if got := peak.Load(); got < 2 {
		t.Fatalf("peak concurrency of an 8-task wave on 2 workers = %d, want >= 2", got)
	}
}
