// Package bgcompile is the bounded background compilation pipeline of
// the host substrate: a fixed worker pool fed by a priority queue of
// trace-plan build jobs (interp.CompileJob), ordered by sampler count so
// the hottest code compiles first, deduplicated in-flight by program
// fingerprint × function × inline mode so a thundering herd of cold
// tenants triggers exactly one build, and bounded in depth with
// drop-lowest backpressure so a burst can never stall a submitting
// engine or grow the heap without limit.
//
// Determinism: a job builds a register-trace plan and CAS-installs it
// into the owning Code's plan slot. Which host tier executes an
// iteration is never a virtual observable (the difftest soaks prove all
// tiers bit-identical), so the wall-clock-racy moment
// at which a background install lands changes only host speed — replay
// stays byte-identical with the pool on or off. See DESIGN.md §15.
package bgcompile

import (
	"container/heap"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evolvevm/internal/interp"
)

// DefaultDepth bounds the priority queue. 256 pending builds is far
// beyond any observed warmup burst (one serve epoch touches tens of
// functions); past it the pool sheds the coldest work rather than
// queueing unboundedly.
const DefaultDepth = 256

// jobKey identifies a build for in-flight deduplication: two Codes with
// equal fingerprints execute identically, so one build per
// (fingerprint, fn, mode) suffices no matter how many tenants
// submit it.
type jobKey struct {
	fp   uint64
	fn   int
	mode bool
}

type entry struct {
	job interp.CompileJob
	key jobKey
	pri int64
	seq uint64 // FIFO tie-break among equal priorities
}

// jobHeap is a max-heap on priority (sampler count at enqueue), oldest
// first among equals.
type jobHeap []entry

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(entry)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = entry{}
	*h = old[:n-1]
	return e
}

// Pool is a bounded background compilation pipeline. The zero value is
// not usable; construct with NewPool. A Pool satisfies
// interp.CompileQueue.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond // work available or closing
	idle     *sync.Cond // queue empty and no build in flight
	queue    jobHeap
	inflight map[jobKey]struct{}
	seq      uint64
	building int
	closed   bool
	wg       sync.WaitGroup

	workers int
	depth   int

	enqueued     atomic.Int64
	built        atomic.Int64
	lostInstalls atomic.Int64
	dropped      atomic.Int64
	deduped      atomic.Int64
	highWater    atomic.Int64

	// hist is the trace-build time histogram (log2 ns buckets).
	hist histogram
}

// NewPool starts a pool of the given worker count (0: half the
// schedulable cores, minimum one — compilation should overlap execution,
// not crowd it out) and queue depth (0: DefaultDepth).
func NewPool(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / 2
		if workers < 1 {
			workers = 1
		}
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	p := &Pool{
		inflight: make(map[jobKey]struct{}),
		workers:  workers,
		depth:    depth,
	}
	p.cond = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues one build without ever blocking the caller. A job
// already in flight for the same (fingerprint, fn, mode) is
// dedup-suppressed; when the queue is full, the lowest-priority pending
// build is shed to make room (or the incoming job itself, when it is the
// coldest). Shed and suppressed jobs are Discarded so the owning engine
// can re-enqueue at its next promotion attempt.
func (p *Pool) Submit(job interp.CompileJob) {
	p.enqueued.Add(1)
	key := jobKey{fp: job.Code.Fingerprint(), fn: job.Code.FnIdx, mode: job.Mode}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.dropped.Add(1)
		job.Discard()
		return
	}
	if _, dup := p.inflight[key]; dup {
		p.mu.Unlock()
		p.deduped.Add(1)
		job.Discard()
		return
	}
	if len(p.queue) >= p.depth {
		// Shed the coldest pending build. The heap orders hottest-first,
		// so the victim needs a linear scan — it only runs when the queue
		// is already at depth, never on the common path.
		victim := 0
		for i := 1; i < len(p.queue); i++ {
			if p.queue.Less(victim, i) {
				victim = i
			}
		}
		if p.queue[victim].pri >= job.Priority {
			p.mu.Unlock()
			p.dropped.Add(1)
			job.Discard()
			return
		}
		shed := p.queue[victim]
		heap.Remove(&p.queue, victim)
		delete(p.inflight, shed.key)
		p.dropped.Add(1)
		shed.job.Discard()
	}
	p.inflight[key] = struct{}{}
	p.seq++
	heap.Push(&p.queue, entry{job: job, key: key, pri: job.Priority, seq: p.seq})
	if n := int64(len(p.queue)); n > p.highWater.Load() {
		p.highWater.Store(n)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			// Closed with the queue drained — graceful shutdown builds
			// every job accepted before Close.
			p.mu.Unlock()
			return
		}
		e := heap.Pop(&p.queue).(entry)
		p.building++
		p.mu.Unlock()

		start := time.Now()
		won := e.job.Build()
		p.hist.note(time.Since(start).Nanoseconds())
		if won {
			p.built.Add(1)
		} else {
			p.lostInstalls.Add(1)
		}

		p.mu.Lock()
		// The key stays in flight for the whole build so duplicates are
		// suppressed until the plan is actually installed.
		delete(p.inflight, e.key)
		p.building--
		if len(p.queue) == 0 && p.building == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}
}

// Drain blocks until the queue is empty and no build is in flight,
// leaving the pool running. Tests and epoch barriers use it to reach a
// quiescent point without tearing the workers down.
func (p *Pool) Drain() {
	p.mu.Lock()
	for len(p.queue) > 0 || p.building > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Close drains the queue gracefully — every job accepted before Close is
// built — then stops the workers and waits for them to exit. Submits
// after Close are dropped (and Discarded). Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	p.mu.Lock()
	if len(p.queue) == 0 && p.building == 0 {
		p.idle.Broadcast()
	}
	p.mu.Unlock()
}

// BuildTimes summarizes a build-duration histogram.
// Quantiles are log2-bucket upper bounds: exact enough to spot a
// regression, cheap enough to sample every build.
type BuildTimes struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// Stats is a point-in-time snapshot of the pool's counters. At
// quiescence (Drain or Close) the flow conserves:
// Enqueued = Built + LostInstalls + Dropped + Deduped.
type Stats struct {
	Workers  int `json:"workers"`
	Depth    int `json:"depth"`
	QueueLen int `json:"queue_len"`
	// InFlight counts builds a worker is executing right now.
	InFlight int `json:"in_flight"`
	// QueueHighWater is the deepest the queue has been since start.
	QueueHighWater int64 `json:"queue_high_water"`
	// Enqueued counts every Submit; Deduped the submits suppressed by an
	// identical in-flight build; Dropped the submits shed by
	// backpressure (either end) or arriving after Close; Built the
	// builds whose install won; LostInstalls the builds whose plan was
	// discarded because a concurrent builder's landed first.
	Enqueued     int64 `json:"enqueued"`
	Built        int64 `json:"built"`
	LostInstalls int64 `json:"lost_installs"`
	Dropped      int64 `json:"dropped"`
	Deduped      int64 `json:"deduped"`

	Trace BuildTimes `json:"trace_build"`
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	qlen, building := len(p.queue), p.building
	p.mu.Unlock()
	return Stats{
		Workers:        p.workers,
		Depth:          p.depth,
		QueueLen:       qlen,
		InFlight:       building,
		QueueHighWater: p.highWater.Load(),
		Enqueued:       p.enqueued.Load(),
		Built:          p.built.Load(),
		LostInstalls:   p.lostInstalls.Load(),
		Dropped:        p.dropped.Load(),
		Deduped:        p.deduped.Load(),
		Trace:          p.hist.snapshot(),
	}
}

// histogram is a lock-free log2 build-time histogram: bucket i counts
// durations in [2^i, 2^(i+1)) ns.
type histogram struct {
	buckets [40]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func (h *histogram) note(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// quantile returns the upper bound of the bucket holding the q-th
// sample (0 < q <= 1).
func (h *histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(float64(total) * q)
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			return 1<<uint(i) - 1
		}
	}
	return h.max.Load()
}

func (h *histogram) snapshot() BuildTimes {
	count := h.count.Load()
	bt := BuildTimes{
		Count: count,
		P50Ns: h.quantile(0.50),
		P99Ns: h.quantile(0.99),
		MaxNs: h.max.Load(),
	}
	if count > 0 {
		bt.MeanNs = h.sum.Load() / count
	}
	return bt
}
