package sig

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultQueueCapacity is the per-worker run-queue capacity used when
// Config.QueueCapacity is zero.
const DefaultQueueCapacity = 256

// ring is one worker's bounded run queue. Producers are any submitting
// goroutine (sharded by task sequence number); consumers are the owning
// worker plus stealing workers. head/tail are atomics so emptiness can be
// probed without the lock (parking heuristics, backpressure rechecks); all
// mutations happen under mu.
type ring struct {
	mu   sync.Mutex
	head atomic.Uint64
	tail atomic.Uint64
	mask uint64
	buf  []*Task
	// Pad to a cache line so neighboring rings do not false-share.
	_ [24]byte
}

func newRing(capacity int) *ring {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &ring{buf: make([]*Task, c), mask: uint64(c - 1)}
}

func (r *ring) empty() bool { return r.tail.Load() == r.head.Load() }

// push appends one task; it reports false when the ring is full.
//
//siglint:noalloc
func (r *ring) push(t *Task) bool {
	r.mu.Lock()
	tail := r.tail.Load()
	if tail-r.head.Load() > r.mask {
		r.mu.Unlock()
		return false
	}
	r.buf[tail&r.mask] = t
	r.tail.Store(tail + 1)
	r.mu.Unlock()
	return true
}

// pushN appends a prefix of ts bounded by the free space and returns how
// many were enqueued, preserving ts order. One lock covers the whole chunk.
//
//siglint:noalloc
func (r *ring) pushN(ts []*Task) int {
	r.mu.Lock()
	tail := r.tail.Load()
	space := int(r.mask + 1 - (tail - r.head.Load()))
	n := len(ts)
	if n > space {
		n = space
	}
	for i := 0; i < n; i++ {
		r.buf[(tail+uint64(i))&r.mask] = ts[i]
	}
	r.tail.Store(tail + uint64(n))
	r.mu.Unlock()
	return n
}

// popN moves up to len(dst) tasks into dst in FIFO order and returns the
// count, claiming no more than a fair share, ceil(queued / workers), of
// what the ring holds (see popBatchSize).
func (r *ring) popN(dst []*Task, workers int) int {
	if r.empty() {
		return 0
	}
	r.mu.Lock()
	head := r.head.Load()
	n := min(len(dst), (int(r.tail.Load()-head)+workers-1)/workers)
	for i := 0; i < n; i++ {
		idx := (head + uint64(i)) & r.mask
		dst[i] = r.buf[idx]
		r.buf[idx] = nil
	}
	r.head.Store(head + uint64(n))
	r.mu.Unlock()
	return n
}

// sched is the dispatch layer: one ring per worker, a wake semaphore for
// parked workers, and a backpressure condition used only when every ring is
// full. No scheduler lock is ever held while a submitter blocks, so Stats,
// Energy and Group stay responsive under saturation.
type sched struct {
	rings  []*ring
	parked atomic.Int32
	wake   chan struct{}
	done   chan struct{}

	// Backpressure path: submitters that find every ring full wait on
	// spaceC; workers broadcast after freeing space, but only when
	// spaceWaiters says someone is actually waiting.
	spaceWaiters atomic.Int32
	spaceMu      sync.Mutex
	spaceC       *sync.Cond
}

func newSched(workers, queueCap int) *sched {
	s := &sched{
		rings: make([]*ring, workers),
		wake:  make(chan struct{}, workers),
		done:  make(chan struct{}),
	}
	for i := range s.rings {
		s.rings[i] = newRing(queueCap)
	}
	s.spaceC = sync.NewCond(&s.spaceMu)
	return s
}

// tryPush offers t to the shard selected by its sequence number, spilling to
// the other rings when the preferred one is full.
//
//siglint:noalloc
func (s *sched) tryPush(t *Task) bool {
	n := len(s.rings)
	start := int(t.Seq) % n
	for i := 0; i < n; i++ {
		if s.rings[(start+i)%n].push(t) {
			return true
		}
	}
	return false
}

// enqueue places t on some ring, blocking on the backpressure condition when
// every ring is full. It never holds a lock while blocked.
//
//siglint:noalloc
func (s *sched) enqueue(t *Task) {
	if s.tryPush(t) {
		s.wakeOne()
		return
	}
	s.spaceWaiters.Add(1)
	s.spaceMu.Lock()
	for !s.tryPush(t) {
		s.spaceC.Wait()
	}
	s.spaceMu.Unlock()
	s.spaceWaiters.Add(-1)
	s.wakeOne()
}

// enqueueBatch places every task of ts in order, striping it across the
// rings in chunks of ceil(len(ts) / rings) so every worker finds a share
// of a small batch in its own ring; one lock acquisition covers each
// chunk. Order within the batch is preserved per chunk and chunks are
// enqueued in order, keeping the dispatch order of a policy flush FIFO
// (exactly FIFO with one worker).
//
//siglint:noalloc
func (s *sched) enqueueBatch(ts []*Task) {
	n := len(s.rings)
	chunk := (len(ts) + n - 1) / n
	shard := 0
	if len(ts) > 0 {
		shard = int(ts[0].Seq) % n
	}
	i := 0
	for i < len(ts) {
		pushed := false
		for j := 0; j < n; j++ {
			if k := s.rings[(shard+j)%n].pushN(ts[i:min(i+chunk, len(ts))]); k > 0 {
				i += k
				shard = (shard + j + 1) % n
				pushed = true
				break
			}
		}
		if pushed {
			continue
		}
		// All rings full: wake the pool and fall back to the blocking
		// path for the next task, then resume chunked pushes.
		s.wakeAll(len(s.rings))
		s.enqueue(ts[i])
		i++
	}
	s.wakeAll(len(ts))
}

// wakeOne hands one wake token to the parked pool, if anyone is parked.
//
//siglint:noalloc
func (s *sched) wakeOne() {
	if s.parked.Load() > 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// wakeAll hands up to n wake tokens out.
//
//siglint:noalloc
func (s *sched) wakeAll(n int) {
	p := int(s.parked.Load())
	if p < n {
		n = p
	}
	for i := 0; i < n; i++ {
		select {
		case s.wake <- struct{}{}:
		default:
			return
		}
	}
}

// signalSpace lets blocked submitters retry after space was freed. The lock
// is taken around Broadcast so a waiter between its failed push and its Wait
// (it holds spaceMu throughout) cannot miss the signal.
//
//siglint:noalloc
func (s *sched) signalSpace() {
	if s.spaceWaiters.Load() == 0 {
		return
	}
	s.spaceMu.Lock()
	s.spaceC.Broadcast()
	s.spaceMu.Unlock()
}

// anyQueued reports whether any ring holds work (lock-free probe).
func (s *sched) anyQueued() bool {
	for _, r := range s.rings {
		if !r.empty() {
			return true
		}
	}
	return false
}

// workerSpinRounds is how many empty scan rounds a worker tolerates (yielding
// between rounds) before parking on the wake semaphore.
const workerSpinRounds = 4

// popBatchSize bounds how many tasks a worker claims per lock acquisition.
// Within it, a worker claims at most its fair share of the ring it pops,
// ceil(queued / workers), so a small flushed wave is spread over the pool
// instead of running on whichever worker claims it first. With one worker
// the share is the whole ring and only popBatchSize bounds the claim.
const popBatchSize = 16

// worker is the scheduling loop of one worker goroutine: drain the own ring
// in batches, steal from siblings when empty, spin briefly, then park.
func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	s := rt.sched
	own := s.rings[id]
	var batch [popBatchSize]*Task
	idle := 0
	for {
		n := own.popN(batch[:], len(s.rings))
		if n == 0 {
			n = rt.steal(id, batch[:])
		}
		if n > 0 {
			idle = 0
			s.signalSpace()
			for i := 0; i < n; i++ {
				rt.execute(id, batch[i])
				batch[i] = nil
			}
			continue
		}
		if idle < workerSpinRounds {
			idle++
			runtime.Gosched()
			continue
		}
		s.parked.Add(1)
		if s.anyQueued() {
			s.parked.Add(-1)
			idle = 0
			continue
		}
		select {
		case <-s.wake:
			s.parked.Add(-1)
			idle = 0
		case <-s.done:
			s.parked.Add(-1)
			return
		}
	}
}

// steal claims up to half a batch from a sibling ring, scanning from the
// next worker onward so victims rotate.
func (rt *Runtime) steal(id int, dst []*Task) int {
	s := rt.sched
	n := len(s.rings)
	limit := len(dst) / 2
	if limit == 0 {
		limit = 1
	}
	for j := 1; j < n; j++ {
		if got := s.rings[(id+j)%n].popN(dst[:limit], n); got > 0 {
			return got
		}
	}
	return 0
}
