package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/harness"
	"evolvevm/internal/serve"
	"evolvevm/internal/traffic"
)

// serve-churn: an open loop of POST /v1/run through Server.Handler(), in
// process and without sockets, at a fixed Poisson rate over many Zipf
// tenants, so new chains keep forking and restoring the shared tier.
// Requests use wait:false: a full queue answers 429, which counts as a
// failure and an SLO miss.
const (
	churnTenants = 4096
	churnEpoch   = 16
	// churnRate is the offered load, about 60% of the closed-loop
	// capacity this shape reaches on 2 cores at the seed commit.
	churnRate = 200
	// churnSLO is the latency limit of slo_attain.
	churnSLO = 100 * time.Millisecond
	// churnWarm is sent, checked and left out of the latency and
	// throughput figures: in the first second a fresh process compiles
	// every benchmark's code, and those few dozen requests would
	// otherwise be most of a ten-second run's p99. Each chain's own cold
	// start stays in: serve.cold_p99_ms reports it.
	churnWarm = time.Second
)

func newChurn(ws int64, seconds time.Duration) (*serve.Server, *traffic.Trace, error) {
	tr, err := traffic.Generate(traffic.GenConfig{
		Seed:          ws,
		Requests:      int(churnRate*(seconds+churnWarm).Seconds()*1.25) + 64,
		Tenants:       churnTenants,
		Benches:       serveBenches,
		MeanGapMicros: 1_000_000 / churnRate,
	})
	if err != nil {
		return nil, nil, err
	}
	s, err := serve.New(serve.Config{
		Scenario:    harness.ScenarioEvolve,
		EpochLength: churnEpoch,
		Seed:        corpusSeed,
		Benches:     serveBenches,
	})
	return s, tr, err
}

func churnSetup(cfg runConfig) (time.Duration, error) {
	start := time.Now()
	s, _, err := newChurn(trafficSeed(cfg.Seed), cfg.Seconds)
	d := time.Since(start)
	if s != nil {
		s.Close()
	}
	return d, err
}

// arrival is one open-loop request as the generator and client saw it.
type arrival struct {
	Due  time.Duration // scheduled send time, from the start of the loop
	Sent time.Duration // actual send time
	Done time.Duration // reply time
	Code int
	Body []byte
}

// latency is the request's time from when it was due, so a generator or
// server stall charges every request it delays.
func (a arrival) latency() time.Duration { return a.Done - a.Due }

// late is how far behind schedule the generator sent the request.
func (a arrival) late() time.Duration { return a.Sent - a.Due }

// openLoop sends every request of tr due before the horizon at its
// arrival offset, each on its own goroutine, and waits for all replies.
// It also returns the process CPU time when the first request due at or
// after warm was sent.
func openLoop(h http.Handler, tr *traffic.Trace, warm, horizon time.Duration, t *tracer) ([]arrival, time.Duration) {
	var n int
	for n < len(tr.Requests) && time.Duration(tr.Requests[n].ArrivalMicros)*time.Microsecond < horizon {
		n++
	}
	out := make([]arrival, n)
	var wg sync.WaitGroup
	var cpuAtWarm time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		req := tr.Requests[i]
		due := time.Duration(req.ArrivalMicros) * time.Microsecond
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if due >= warm && cpuAtWarm == 0 {
			cpuAtWarm = cpuTime()
		}
		out[i].Due = due
		out[i].Sent = time.Since(start)
		body, _ := json.Marshal(serve.RunRequestBody{Tenant: req.Tenant, Bench: req.Bench, Input: req.Input})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := t.open("serve.http", 0, int64(i))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			out[i].Done = time.Since(start)
			t.close(sp)
			out[i].Code = rec.Code
			out[i].Body = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	return out, cpuAtWarm
}

func runChurn(cfg runConfig, t *tracer) (*childResult, error) {
	ws := trafficSeed(cfg.Seed)
	ref, err := loadChurnRef()
	if err != nil {
		return nil, err
	}
	s, tr, err := newChurn(ws, cfg.Seconds)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	h := s.Handler()

	arrivals, cpu0 := openLoop(h, tr, churnWarm, churnWarm+cfg.Seconds, t)
	cpu := cpuTime() - cpu0
	s.Drain()

	res := &childResult{E2E: map[string]float64{}, Layer: map[string]float64{}}
	var lat, wait, execT, cold, late sample
	var okInSLO, timed, predicted, answered int
	var last time.Duration
	seenChain := make(map[string]bool)
	for i, a := range arrivals {
		res.Attempted++
		req := tr.Requests[i]
		if key := req.Chain(); !seenChain[key] {
			seenChain[key] = true
			cold = append(cold, ms(a.latency()))
		}
		resp, why := ref.outcome(a, req)
		if why != "" {
			res.fail("request %d (%s input %d): %s", i, req.Bench, req.Input, why)
		}
		if a.Due < churnWarm {
			continue
		}
		timed++
		last = max(last, a.Done)
		lat = append(lat, ms(a.latency()))
		late = append(late, ms(a.late()))
		if why != "" {
			continue
		}
		answered++
		wait = append(wait, ms(a.latency()-resp.Wall))
		execT = append(execT, ms(resp.Wall))
		if resp.Predicted {
			predicted++
		}
		if a.latency() <= churnSLO {
			okInSLO++
		}
	}
	if err := s.LedgerBalanced(); err != nil {
		res.errorf("ledger: %v", err)
	}

	res.E2E["throughput_rps"] = float64(okInSLO) / cfg.Seconds.Seconds()
	res.Latencies = lat
	res.E2E["latency_p50_ms"] = lat.q(p50)
	res.E2E["latency_p99_ms"] = lat.q(p99)
	res.E2E["slo_attain"] = ratio(float64(okInSLO), float64(timed))
	res.E2E["exp_wall_s"] = (last - churnWarm).Seconds()
	res.E2E["cpu_s"] = cpu.Seconds()
	res.Notes = append(res.Notes, latencyNote("chain-first request latency", cold),
		fmt.Sprintf("traffic seed %d, corpus seed %d: %d requests offered at %d/s over %v after a %v warm-up; %d chains; slo %v",
			ws, corpusSeed, timed, churnRate, cfg.Seconds, churnWarm, len(seenChain), churnSLO))

	res.Layer["serve.wait_p50_ms"] = wait.q(p50)
	res.Layer["serve.wait_p99_ms"] = wait.q(p99)
	res.Layer["serve.exec_p50_ms"] = execT.q(p50)
	res.Layer["serve.exec_p99_ms"] = execT.q(p99)
	res.Layer["serve.cold_p99_ms"] = cold.q(p99)
	res.Layer["serve.predicted_frac"] = ratio(float64(predicted), float64(answered))
	res.Layer["loadgen.late_p99_ms"] = late.q(p99)
	stats, err := serverStats(h)
	if err != nil {
		return nil, err
	}
	serveLayers(stats, res.Layer)

	if t != nil {
		var served []traffic.Request
		for i, a := range arrivals {
			if a.Code == http.StatusOK {
				served = append(served, tr.Requests[i])
			}
		}
		if err := sessionLayers(s.Checkpoint, requestChains(served), t, res.Layer); err != nil {
			res.errorf("session: %v", err)
		}
		if err := replayServe(0, tr.Requests[:replayRequests], t, res.Layer); err != nil {
			res.errorf("layer replay: %v", err)
		}
	}
	return res, nil
}

// churnRef is the expected program value of every corpus input of every
// serve benchmark. Live admission order varies between runs, so on this
// workload only values are checked, not cycles or predictions.
type churnRef struct {
	Seed    int64                   `json:"seed"`
	Benches map[string][]inputValue `json:"benches"`
}

type inputValue struct {
	ID     string         `json:"id"`
	Status string         `json:"status"`
	Value  bytecode.Value `json:"value"`
}

// outcome decodes the reply to req and returns it, or why it is a
// failure: any status but 200 (429, 5xx, 504 alike), an undecodable body,
// or an output that differs from the reference.
func (r *churnRef) outcome(a arrival, req traffic.Request) (*serve.Response, string) {
	if a.Code != http.StatusOK {
		return nil, fmt.Sprintf("HTTP %d %s", a.Code, bytes.TrimSpace(a.Body))
	}
	var resp serve.Response
	if err := json.Unmarshal(a.Body, &resp); err != nil {
		return nil, fmt.Sprintf("undecodable response: %v", err)
	}
	corpus := r.Benches[req.Bench]
	if len(corpus) == 0 {
		return nil, "no reference for benchmark"
	}
	want := corpus[((req.Input%len(corpus))+len(corpus))%len(corpus)]
	switch {
	case resp.InputID != want.ID:
		return nil, fmt.Sprintf("input %q, want %q", resp.InputID, want.ID)
	case resp.Status != want.Status:
		return nil, fmt.Sprintf("status %q, want %q", resp.Status, want.Status)
	case resp.Value.I != want.Value.I || resp.Value.Kind != want.Value.Kind ||
		math.Float64bits(resp.Value.F) != math.Float64bits(want.Value.F):
		return nil, fmt.Sprintf("value %+v, want %+v", resp.Value, want.Value)
	}
	return &resp, ""
}
