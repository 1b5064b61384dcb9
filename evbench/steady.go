package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evolvevm/internal/harness"
	"evolvevm/internal/serve"
	"evolvevm/internal/traffic"
)

// serve-steady: a closed loop through serve.Server.Submit over a small,
// warm tenant population. nproc clients each own the chains
// serve.ClientOf assigns them, send a request only after the previous
// reply, and move through the trace in epoch lockstep, so the set of
// requests between two epoch barriers — and with it every virtual
// outcome — is the same in every run.
const (
	steadyTenants = 8
	steadyCorpus  = 4
	steadyEpoch   = 64
	// steadyWarmEpochs run untimed first, so the timed phase sees learned
	// predictions and hot caches. Their outputs are checked all the same.
	steadyWarmEpochs = 16
	// steadyTimedEpochs is the timed window: every repetition serves
	// exactly these epochs after the warm-up, on every commit, so a
	// faster program does the same work in less time rather than more
	// work (with a longer chain history, hence costlier requests) in the
	// same time.
	steadyTimedEpochs = 96
	// steadyRefEpochs is the trace length and the reference's coverage.
	steadyRefEpochs = 320
	// steadySLO is the latency limit of slo_attain: about 1.5 times the
	// request p99 measured at the commit that added the benchmark.
	steadySLO = 40 * time.Millisecond
)

func newSteady(ws int64) (*serve.Server, *traffic.Trace, error) {
	tr, err := traffic.Generate(traffic.GenConfig{
		Seed:     ws,
		Requests: steadyRefEpochs * steadyEpoch,
		Tenants:  steadyTenants,
		Benches:  serveBenches,
	})
	if err != nil {
		return nil, nil, err
	}
	s, err := serve.New(serve.Config{
		Scenario:    harness.ScenarioEvolve,
		EpochLength: steadyEpoch,
		Seed:        corpusSeed,
		CorpusSize:  steadyCorpus,
		Benches:     serveBenches,
	})
	return s, tr, err
}

func steadySetup(cfg runConfig) (time.Duration, error) {
	start := time.Now()
	s, _, err := newSteady(trafficSeed(cfg.Seed))
	d := time.Since(start)
	if s != nil {
		s.Close()
	}
	return d, err
}

// observation is one request as a client saw it.
type observation struct {
	Sent bool
	Lat  time.Duration
	Resp *serve.Response
	Err  error
}

// latch is a reusable rendezvous: the last of the parties to arrive runs
// onLast before any party is released into the next round.
type latch struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	round   int
}

func newLatch(parties int) *latch {
	l := &latch{parties: parties}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *latch) arrive(onLast func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.arrived++
	if l.arrived == l.parties {
		onLast()
		l.arrived = 0
		l.round++
		l.cond.Broadcast()
		return
	}
	for r := l.round; r == l.round; {
		l.cond.Wait()
	}
}

// closedLoop serves tr through s.Submit from the given number of clients
// in epoch lockstep. After each epoch, once every one of its requests has
// been answered, the last client calls epochDone with the number of
// epochs completed; true stops the loop there. It returns one
// observation per trace request (unsent ones have Sent false) and the
// number of epochs completed.
func closedLoop(s *serve.Server, tr *traffic.Trace, epochLen, clients int, t *tracer, epochDone func(int) bool) ([]observation, int) {
	epochs := (len(tr.Requests) + epochLen - 1) / epochLen
	parts := make([][][]int, clients)
	for c := range parts {
		parts[c] = make([][]int, epochs)
	}
	for i, req := range tr.Requests {
		c := serve.ClientOf(req.Chain(), clients)
		parts[c][i/epochLen] = append(parts[c][i/epochLen], i)
	}
	obs := make([]observation, len(tr.Requests))
	l := newLatch(clients)
	var stop atomic.Bool
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for e := 0; e < epochs && !stop.Load(); e++ {
				for _, i := range parts[c][e] {
					req := tr.Requests[i]
					sp := t.open("serve.submit", 0, int64(i))
					start := time.Now()
					resp, err := s.Submit(context.Background(), req.Tenant, req.Bench, req.Input, 0)
					obs[i] = observation{Sent: true, Lat: time.Since(start), Resp: resp, Err: err}
					t.close(sp)
				}
				l.arrive(func() {
					done.Store(int64(e + 1))
					if epochDone(e+1) || e+1 == epochs {
						stop.Store(true)
					}
				})
			}
		}(c)
	}
	wg.Wait()
	return obs, int(done.Load())
}

// epochDigests folds the response checksums of each epoch, in trace
// order, with their trace positions.
func epochDigests(sums []uint64, epochLen int) []uint64 {
	out := make([]uint64, (len(sums)+epochLen-1)/epochLen)
	for e := range out {
		h := fnvState(14695981039346656037)
		for i := e * epochLen; i < (e+1)*epochLen && i < len(sums); i++ {
			h.fold(uint64(i))
			h.fold(sums[i])
		}
		out[e] = uint64(h)
	}
	return out
}

// checksums lists the response checksum of each of the first n
// observations. Unanswered requests count as 0, which no reference holds.
func checksums(obs []observation, n int) []uint64 {
	out := make([]uint64, n)
	for i, o := range obs[:n] {
		if o.Err == nil && o.Resp != nil {
			out[i] = o.Resp.Checksum
		}
	}
	return out
}

func formatDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// fnvState is an incremental FNV-1a fold over 64-bit words.
type fnvState uint64

func (f *fnvState) fold(v uint64) {
	for i := 0; i < 8; i++ {
		*f ^= fnvState(v & 0xff)
		*f *= 1099511628211
		v >>= 8
	}
}

func runSteady(cfg runConfig, t *tracer) (*childResult, error) {
	ws := trafficSeed(cfg.Seed)
	ref, err := loadSteadyRef(ws)
	if err != nil {
		return nil, err
	}
	s, tr, err := newSteady(ws)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	var timedStart, timedEnd time.Time
	var cpuStart, cpuEnd time.Duration
	obs, done := closedLoop(s, tr, steadyEpoch, nproc(), t, func(done int) bool {
		switch done {
		case steadyWarmEpochs:
			timedStart, cpuStart = time.Now(), cpuTime()
		case steadyWarmEpochs + steadyTimedEpochs:
			timedEnd, cpuEnd = time.Now(), cpuTime()
			return true
		}
		return false
	})
	if done != steadyWarmEpochs+steadyTimedEpochs {
		return nil, fmt.Errorf("trace ended after %d epochs, want %d", done, steadyWarmEpochs+steadyTimedEpochs)
	}

	res := &childResult{E2E: map[string]float64{}, Layer: map[string]float64{}}
	bad := make([]bool, done)
	for e, d := range epochDigests(checksums(obs, done*steadyEpoch), steadyEpoch) {
		if e >= len(ref.Epochs) || formatDigest(d) != ref.Epochs[e] {
			bad[e] = true
		}
	}
	var lat, wait, execT, cold sample
	var okInSLO, predicted, predictedOf int
	seenChain := make(map[string]bool)
	for i, o := range obs {
		if !o.Sent {
			continue
		}
		res.Attempted++
		e := i / steadyEpoch
		ok := o.Err == nil && o.Resp.Status == traffic.StatusOK && !bad[e]
		switch {
		case o.Err != nil:
			res.fail("request %d: %v", i, o.Err)
		case o.Resp.Status != traffic.StatusOK:
			res.fail("request %d: status %s %s", i, o.Resp.Status, o.Resp.Trap)
		case bad[e]:
			res.fail("request %d: epoch %d digest differs from the reference", i, e)
		}
		if key := tr.Requests[i].Chain(); !seenChain[key] {
			seenChain[key] = true
			cold = append(cold, ms(o.Lat))
		}
		if e < steadyWarmEpochs {
			continue
		}
		lat = append(lat, ms(o.Lat))
		if o.Resp != nil {
			wait = append(wait, ms(o.Lat-o.Resp.Wall))
			execT = append(execT, ms(o.Resp.Wall))
			predictedOf++
			if o.Resp.Predicted {
				predicted++
			}
		}
		if ok && o.Lat <= steadySLO {
			okInSLO++
		}
	}
	if err := s.LedgerBalanced(); err != nil {
		res.errorf("ledger: %v", err)
	}

	wall := timedEnd.Sub(timedStart)
	res.E2E["throughput_rps"] = float64(len(lat)) / wall.Seconds()
	res.Latencies = lat
	res.E2E["latency_p50_ms"] = lat.q(p50)
	res.E2E["latency_p99_ms"] = lat.q(p99)
	res.E2E["slo_attain"] = ratio(float64(okInSLO), float64(len(lat)))
	res.E2E["exp_wall_s"] = wall.Seconds()
	res.E2E["cpu_s"] = (cpuEnd - cpuStart).Seconds()
	res.Notes = append(res.Notes, fmt.Sprintf("traffic seed %d, corpus seed %d: %d timed epochs of %d requests after %d warm-up epochs; %d chains; slo %v",
		ws, corpusSeed, done-steadyWarmEpochs, steadyEpoch, steadyWarmEpochs, len(seenChain), steadySLO))

	res.Layer["serve.wait_p50_ms"] = wait.q(p50)
	res.Layer["serve.wait_p99_ms"] = wait.q(p99)
	res.Layer["serve.exec_p50_ms"] = execT.q(p50)
	res.Layer["serve.exec_p99_ms"] = execT.q(p99)
	res.Layer["serve.cold_p99_ms"] = cold.q(p99)
	res.Layer["serve.predicted_frac"] = ratio(float64(predicted), float64(predictedOf))
	res.Layer["loadgen.late_p99_ms"] = 0 // a closed loop has no schedule to fall behind
	stats, err := serverStats(s.Handler())
	if err != nil {
		return nil, err
	}
	serveLayers(stats, res.Layer)

	if t != nil {
		if err := sessionLayers(s.Checkpoint, requestChains(tr.Requests[:done*steadyEpoch]), t, res.Layer); err != nil {
			res.errorf("session: %v", err)
		}
		if err := replayServe(steadyCorpus, tr.Requests[:replayRequests], t, res.Layer); err != nil {
			res.errorf("layer replay: %v", err)
		}
	}
	return res, nil
}

// latencyNote states a latency sample's size and the highest percentile
// it supports with ten samples beyond it.
func latencyNote(what string, s sample) string {
	tail := tailPercentile(len(s))
	if tail == 0 {
		return fmt.Sprintf("%s: n=%d, too few samples for any percentile with 10 beyond", what, len(s))
	}
	return fmt.Sprintf("%s: n=%d, p50=%.4g ms, %s=%.4g ms (highest percentile with >=10 samples beyond)",
		what, len(s), s.q(p50), pctName(tail), s.q(tail))
}
