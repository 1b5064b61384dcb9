package main

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/serve"
	"evolvevm/internal/traffic"
)

func TestArrivalTimesFromDue(t *testing.T) {
	a := arrival{Due: 5 * time.Millisecond, Sent: 7 * time.Millisecond, Done: 30 * time.Millisecond}
	if a.latency() != 25*time.Millisecond {
		t.Errorf("latency %v, want 25ms: measured from due, not from send", a.latency())
	}
	if a.late() != 2*time.Millisecond {
		t.Errorf("late %v, want 2ms", a.late())
	}
}

func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	// One request at a time, 20ms each: five requests due together queue
	// behind each other, and each latency includes the queueing.
	var mu sync.Mutex
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(20 * time.Millisecond)
		mu.Unlock()
	})
	tr := &traffic.Trace{}
	for i := 0; i < 5; i++ {
		tr.Requests = append(tr.Requests, traffic.Request{Tenant: "t", Bench: "b"})
	}
	// Requests due at or after the horizon are not sent.
	tr.Requests = append(tr.Requests, traffic.Request{Tenant: "t", Bench: "b", ArrivalMicros: 2_000_000})
	got, _ := openLoop(h, tr, 0, time.Second, nil)
	if len(got) != 5 {
		t.Fatalf("sent %d requests, want the 5 due before the horizon", len(got))
	}
	var lats []time.Duration
	for _, a := range got {
		if a.Code != http.StatusOK {
			t.Errorf("code %d", a.Code)
		}
		if a.late() < 0 || a.late() > 15*time.Millisecond {
			t.Errorf("generator lateness %v for requests due at start", a.late())
		}
		lats = append(lats, a.latency())
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	for k, l := range lats {
		if min := time.Duration(k+1) * 20 * time.Millisecond; l < min {
			t.Errorf("latency #%d = %v, want >= %v", k, l, min)
		}
	}
}

func TestChurnFailureAccounting(t *testing.T) {
	ref := &churnRef{Benches: map[string][]inputValue{
		"compress": {
			{ID: "in0", Status: traffic.StatusOK, Value: bytecode.Int(7)},
			{ID: "in1", Status: traffic.StatusOK, Value: bytecode.Float(0.5)},
		},
	}}
	body := func(id string, v bytecode.Value) []byte {
		b, _ := json.Marshal(serve.Response{InputID: id, Status: traffic.StatusOK, Value: v})
		return b
	}
	req := func(input int) traffic.Request { return traffic.Request{Bench: "compress", Input: input} }
	cases := []struct {
		name string
		a    arrival
		req  traffic.Request
		ok   bool
	}{
		{"ok", arrival{Code: 200, Body: body("in0", bytecode.Int(7))}, req(0), true},
		{"ok, input reduced modulo the corpus", arrival{Code: 200, Body: body("in1", bytecode.Float(0.5))}, req(5), true},
		{"429", arrival{Code: 429, Body: []byte(`{"error":"queue full"}`)}, req(0), false},
		{"500", arrival{Code: 500}, req(0), false},
		{"503", arrival{Code: 503}, req(0), false},
		{"504", arrival{Code: 504, Body: body("in0", bytecode.Value{})}, req(0), false},
		{"wrong value", arrival{Code: 200, Body: body("in0", bytecode.Int(8))}, req(0), false},
		{"wrong float bits", arrival{Code: 200, Body: body("in1", bytecode.Float(0.5000001))}, req(1), false},
		{"wrong input", arrival{Code: 200, Body: body("in1", bytecode.Int(7))}, req(0), false},
		{"undecodable", arrival{Code: 200, Body: []byte("{")}, req(0), false},
	}
	res := &childResult{}
	for _, tc := range cases {
		res.Attempted++
		_, why := ref.outcome(tc.a, tc.req)
		if (why == "") != tc.ok {
			t.Errorf("%s: failure %q, want ok=%t", tc.name, why, tc.ok)
		}
		if why != "" {
			res.fail("%s", why)
		}
	}
	if res.Failed != 8 || ratio(float64(res.Failed), float64(res.Attempted)) != 0.8 {
		t.Errorf("failed %d of %d, want 8 of 10", res.Failed, res.Attempted)
	}
}

func TestClosedLoopDigestIndependentOfClients(t *testing.T) {
	if testing.Short() {
		t.Skip("serves six epochs twice")
	}
	refDir = "ref"
	ref, err := loadSteadyRef(1)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 6
	run := func(clients, stopAt int) ([]string, []observation) {
		s, tr, err := newSteady(1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tr.Requests = tr.Requests[:epochs*steadyEpoch]
		obs, done := closedLoop(s, tr, steadyEpoch, clients, nil, func(done int) bool { return done == stopAt })
		if want := min(stopAt, epochs); done != want {
			t.Fatalf("%d clients: %d epochs done, want %d", clients, done, want)
		}
		if err := s.LedgerBalanced(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range epochDigests(checksums(obs, done*steadyEpoch), steadyEpoch) {
			out = append(out, formatDigest(d))
		}
		return out, obs
	}
	one, _ := run(1, epochs)
	many, _ := run(max(2, nproc()), epochs)
	for e := 0; e < epochs; e++ {
		if one[e] != ref.Epochs[e] || many[e] != ref.Epochs[e] {
			t.Errorf("epoch %d: 1 client %s, %d clients %s, reference %s", e, one[e], max(2, nproc()), many[e], ref.Epochs[e])
		}
	}
	// Stopping is decided once per epoch, for every client at once.
	_, obs := run(max(2, nproc()), 2)
	for i, o := range obs {
		if o.Sent != (i < 2*steadyEpoch) {
			t.Fatalf("request %d sent=%t after a stop at epoch 2", i, o.Sent)
		}
	}
}
