package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestHandleRunRejectsInvalidBodies: POST /v1/run answers 400 for every
// body that does not mean exactly one well-formed request — unknown
// fields (a misspelled deadline would otherwise run with none), trailing
// data, malformed JSON, a negative or overflowing deadline, an empty
// tenant, an unknown benchmark — and runs the valid one.
func TestHandleRunRejectsInvalidBodies(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"valid", `{"tenant":"t0","bench":"compress","input":1,"deadline_ms":60000}`, http.StatusOK},
		{"unknown field", `{"tenant":"t0","bench":"compress","input":1,"deadline_millis":5}`, http.StatusBadRequest},
		{"negative deadline", `{"tenant":"t0","bench":"compress","input":1,"deadline_ms":-1}`, http.StatusBadRequest},
		{"overflowing deadline", `{"tenant":"t0","bench":"compress","input":1,"deadline_ms":9223372036854775807}`, http.StatusBadRequest},
		{"trailing data", `{"tenant":"t0","bench":"compress","input":1}{}`, http.StatusBadRequest},
		{"malformed", `{"tenant":"t0",`, http.StatusBadRequest},
		{"wrong type", `{"tenant":"t0","bench":"compress","input":"1"}`, http.StatusBadRequest},
		{"not an object", `[]`, http.StatusBadRequest},
		{"empty", ``, http.StatusBadRequest},
		{"empty tenant", `{"bench":"compress","input":1}`, http.StatusBadRequest},
		{"unknown bench", `{"tenant":"t0","bench":"nope","input":1}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
		})
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/run", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: status %d, want %d", rec.Code, http.StatusMethodNotAllowed)
	}
}

// TestSubmitRejectsNegativeDeadline: a negative deadline is a bad request
// on both submission paths, not a request without a deadline, and is
// rejected before admission.
func TestSubmitRejectsNegativeDeadline(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, submit := range map[string]func(context.Context, string, string, int, time.Duration) (*Response, error){
		"Submit": s.Submit, "TrySubmit": s.TrySubmit,
	} {
		if _, err := submit(context.Background(), "t0", "compress", 1, -time.Millisecond); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s with a negative deadline: err %v, want ErrBadRequest", name, err)
		}
	}
	if st := s.StatsNow(); st.Admitted != 0 {
		t.Fatalf("%d requests admitted, want 0", st.Admitted)
	}
}

// FuzzRunBody feeds arbitrary bytes to the /v1/run body decoder: it must
// never panic, and every body it accepts must have a valid deadline and
// re-encode to JSON that decodes to an equal RunRequestBody. The seed
// corpus is testdata/fuzz/FuzzRunBody.
func FuzzRunBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := decodeRunBody(data)
		if err != nil {
			return
		}
		if body.DeadlineMillis < 0 || body.DeadlineMillis > maxDeadlineMillis {
			t.Fatalf("accepted deadline_ms %d", body.DeadlineMillis)
		}
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", body, err)
		}
		again, err := decodeRunBody(enc)
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(again, body) {
			t.Fatalf("round trip changed the body: %+v -> %s -> %+v", body, enc, again)
		}
	})
}
