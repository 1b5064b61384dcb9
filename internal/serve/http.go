package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RunRequestBody is the POST /v1/run payload.
type RunRequestBody struct {
	Tenant string `json:"tenant"`
	Bench  string `json:"bench"`
	Input  int    `json:"input"`
	// DeadlineMillis bounds wall-clock service time (0 = none; negative
	// is a bad request). An expired deadline aborts the run at a sample
	// boundary and answers 504 without committing any learner state.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Wait opts into backpressure: block for a queue slot instead of
	// taking 429 when the queue is full.
	Wait bool `json:"wait,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/run   — execute one request (RunRequestBody → Response)
//	GET  /v1/stats — Stats snapshot
//	GET  /healthz  — liveness (503 while draining)
//
// A body that does not decode as exactly one RunRequestBody (unknown
// fields included), a negative deadline, or an unknown tenant or
// benchmark is 400. Admission maps to status codes: queue full and
// tenant cap are 429 with
// a Retry-After hint, draining is 503, an expired request deadline is
// 504 (the Response body still carries the canceled status), a trap is
// 200 — a program fault is a legitimate, fully attributed outcome, not a
// server error.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsNow())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	body, err := readRunBody(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	deadline := time.Duration(body.DeadlineMillis) * time.Millisecond
	var resp *Response
	if body.Wait {
		resp, err = s.Submit(r.Context(), body.Tenant, body.Bench, body.Input, deadline)
	} else {
		resp, err = s.TrySubmit(r.Context(), body.Tenant, body.Bench, body.Input, deadline)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantBusy):
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if resp.Status == "canceled" {
		writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfter estimates how long a rejected client should back off: the
// observed wall p50 latency, floored at one second (Retry-After is whole
// seconds). The histogram read is lock-free (advisory hint, exactness
// not needed).
func (s *Server) retryAfter() string {
	p50 := s.whist.Quantile(0.50)
	secs := int64(time.Duration(p50) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// maxRequestBody bounds POST bodies; run requests are a few dozen bytes.
const maxRequestBody = 1 << 20

// bufPool recycles encode/decode buffers across requests so the serving
// hot path doesn't allocate a fresh buffer (and, on the write side, a
// chunked-transfer state machine) per request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readRunBody reads one POST /v1/run body from r through a pooled
// buffer and decodes it (decodeRunBody).
func readRunBody(r io.Reader) (RunRequestBody, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if _, err := buf.ReadFrom(io.LimitReader(r, maxRequestBody)); err != nil {
		return RunRequestBody{}, err
	}
	return decodeRunBody(buf.Bytes())
}

// maxDeadlineMillis is the largest deadline_ms whose time.Duration does
// not overflow.
const maxDeadlineMillis = math.MaxInt64 / int64(time.Millisecond)

// decodeRunBody decodes exactly one RunRequestBody JSON object. Invalid
// input fails instead of running with a silently changed meaning: a
// field the body does not have (a typo such as "deadline_millis" would
// otherwise run with no deadline), trailing data, and a deadline_ms that
// is negative or overflows a time.Duration are errors.
func decodeRunBody(data []byte) (RunRequestBody, error) {
	var body RunRequestBody
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return RunRequestBody{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return RunRequestBody{}, errors.New("trailing data after the body")
	}
	if body.DeadlineMillis < 0 || body.DeadlineMillis > maxDeadlineMillis {
		return RunRequestBody{}, fmt.Errorf("deadline_ms %d out of range [0, %d]", body.DeadlineMillis, maxDeadlineMillis)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// putBuf returns a buffer to the pool unless it grew past the point
// where keeping it would pin memory.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() > 1<<16 {
		return
	}
	buf.Reset()
	bufPool.Put(buf)
}
