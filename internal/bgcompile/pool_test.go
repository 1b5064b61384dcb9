package bgcompile

import (
	"container/heap"
	"sync"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
)

const loopSrc = `
func main() locals i sum
	const 0
	store sum
	const 0
	store i
loop:
	load i
	const 200
	ige
	jnz done
	load sum
	load i
	iadd
	store sum
	load i
	const 1
	iadd
	store i
	jmp loop
done:
	load sum
	ret
end
`

// testCode returns a fresh optimized-level Code for the loop program.
// Distinct calls return distinct Codes with equal fingerprints — the
// shape the in-flight dedup exists for.
func testCode(t *testing.T) *interp.Code {
	t.Helper()
	p, err := bytecode.Assemble("t", loopSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return interp.NewCode(0, p.Funcs[0], 0, 50)
}

// stoppedPool returns a pool with no workers: Submit, dedup, and
// backpressure run exactly as in production, but nothing consumes the
// queue, so queue-level behaviour is deterministic.
func stoppedPool(depth int) *Pool {
	p := &Pool{inflight: make(map[jobKey]struct{}), depth: depth}
	p.cond = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	return p
}

func job(c *interp.Code, mode bool, pri int64) interp.CompileJob {
	return interp.CompileJob{Code: c, Mode: mode, Priority: pri}
}

func TestSubmitDedupInFlight(t *testing.T) {
	p := stoppedPool(16)
	a, b := testCode(t), testCode(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("test codes should fingerprint identically")
	}

	p.Submit(job(a, true, 2))
	p.Submit(job(a, true, 3))  // same code again
	p.Submit(job(b, true, 4))  // distinct code, same fingerprint
	p.Submit(job(a, false, 2)) // different mode: not a dup

	st := p.Stats()
	if st.Enqueued != 4 || st.Deduped != 2 || st.QueueLen != 2 {
		t.Fatalf("enqueued=%d deduped=%d queue=%d, want 4/2/2", st.Enqueued, st.Deduped, st.QueueLen)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	p := stoppedPool(2)
	mk := func(pri int64) interp.CompileJob {
		c := testCode(t)
		// Unique FnIdx defeats fingerprint dedup so only depth applies.
		c.FnIdx = int(pri)
		return job(c, true, pri)
	}
	p.Submit(mk(1))
	p.Submit(mk(2))
	p.Submit(mk(3)) // sheds the pri-1 entry
	p.Submit(mk(0)) // colder than everything queued: itself dropped

	st := p.Stats()
	if st.QueueLen != 2 || st.Dropped != 2 {
		t.Fatalf("queue=%d dropped=%d, want 2/2", st.QueueLen, st.Dropped)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pris := []int64{heap.Pop(&p.queue).(entry).pri, heap.Pop(&p.queue).(entry).pri}
	if pris[0] != 3 || pris[1] != 2 {
		t.Fatalf("surviving priorities %v, want [3 2]", pris)
	}
}

func TestPriorityOrderHottestFirst(t *testing.T) {
	p := stoppedPool(16)
	for i, pri := range []int64{1, 5, 3, 5} {
		c := testCode(t)
		c.FnIdx = i
		p.Submit(job(c, true, pri))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var got []int64
	var fns []int
	for p.queue.Len() > 0 {
		e := heap.Pop(&p.queue).(entry)
		got = append(got, e.pri)
		fns = append(fns, e.key.fn)
	}
	want := []int64{5, 5, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	// Equal priorities pop oldest-first: fn 1 was submitted before fn 3.
	if fns[0] != 1 || fns[1] != 3 {
		t.Fatalf("tie-break order %v, want fn 1 before fn 3", fns)
	}
}

func TestBuildInstallsAndHighWater(t *testing.T) {
	pool := NewPool(2, 8)
	defer pool.Close()
	c := testCode(t)
	pool.Submit(job(c, false, 2))
	pool.Submit(job(c, true, 2))
	pool.Drain()

	st := pool.Stats()
	if st.Built != 2 || st.LostInstalls != 0 {
		t.Fatalf("built=%d lost=%d, want 2/0", st.Built, st.LostInstalls)
	}
	for _, inline := range []bool{false, true} {
		if heads, _, _ := c.TraceInfo(inline); heads == 0 {
			t.Fatalf("inline=%v trace plan not installed after drain", inline)
		}
	}
	if st.QueueHighWater < 1 {
		t.Fatalf("high water %d, want >= 1", st.QueueHighWater)
	}
	if st.Trace.Count != 2 {
		t.Fatalf("trace build histogram count %d, want 2", st.Trace.Count)
	}
}

func TestCloseDrainsQueuedWork(t *testing.T) {
	pool := NewPool(1, 64)
	var codes []*interp.Code
	for i := 0; i < 16; i++ {
		c := testCode(t)
		c.FnIdx = i
		codes = append(codes, c)
		pool.Submit(job(c, true, int64(i)))
	}
	pool.Close() // graceful: everything accepted must still build

	st := pool.Stats()
	if st.Built+st.LostInstalls != 16 {
		t.Fatalf("built=%d lost=%d, want 16 total", st.Built, st.LostInstalls)
	}
	for i, c := range codes {
		if !c.TraceReady() {
			t.Fatalf("code %d not built after Close", i)
		}
	}
	// Submit after Close drops without building.
	pool.Submit(job(testCode(t), true, 1))
	if st := pool.Stats(); st.Dropped != 1 {
		t.Fatalf("post-close dropped=%d, want 1", st.Dropped)
	}
}

// TestCounterConservation hammers one pool from many goroutines — a mix
// of duplicate and distinct jobs against a small queue — and checks the
// flow conservation law at quiescence: every submit is accounted as
// exactly one of built, lost-install, dropped, or deduped.
func TestCounterConservation(t *testing.T) {
	pool := NewPool(4, 4)
	defer pool.Close()

	shared := make([]*interp.Code, 8)
	for i := range shared {
		shared[i] = testCode(t)
		shared[i].FnIdx = i
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := shared[(g+i)%len(shared)]
				pool.Submit(job(c, i%3 == 0, int64(i%7)))
			}
		}(g)
	}
	wg.Wait()
	pool.Drain()

	st := pool.Stats()
	if got := st.Built + st.LostInstalls + st.Dropped + st.Deduped; got != st.Enqueued {
		t.Fatalf("conservation violated: built %d + lost %d + dropped %d + deduped %d = %d, enqueued %d",
			st.Built, st.LostInstalls, st.Dropped, st.Deduped, got, st.Enqueued)
	}
	if st.QueueLen != 0 || st.InFlight != 0 {
		t.Fatalf("not quiescent after Drain: queue=%d inflight=%d", st.QueueLen, st.InFlight)
	}
}
