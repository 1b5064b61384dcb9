package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"syscall"
	"time"

	"evolvevm/internal/harness"
	"evolvevm/internal/interp"
)

// workload is one named traffic mix or experiment.
type workload struct {
	name string
	// setup performs the workload's set-up alone, as a fresh process
	// does it, and returns how long it took.
	setup func(cfg runConfig) (time.Duration, error)
	// run is one measurement: set-up, the timed phase, and the checks of
	// every output against the references. A non-nil tracer records
	// spans and adds the per-layer post-phase.
	run func(cfg runConfig, t *tracer) (*childResult, error)
	// slices is how many cold repetitions share --seconds, each loaded
	// for an equal slice of it. Zero means a repetition is a fixed unit
	// of work, repeated until --seconds have passed (at least minReps
	// times). Either way the run reports the median over repetitions, so
	// one slow process — a different heap layout, hash seed or GC pacing
	// — does not move the result.
	slices int
	// replayTraced marks a workload whose traced run is the layer replay
	// rather than the workload's own calls; the tracing overhead is then
	// measured against the replay run untraced.
	replayTraced bool
}

var workloads = []*workload{
	{name: "serve-steady", setup: steadySetup, run: runSteady},
	{name: "serve-churn", setup: churnSetup, run: runChurn, slices: 3},
	{name: "fig10", setup: fig10Setup, run: runFig10, replayTraced: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// On the serve workloads the command-line seed n selects the traffic —
// tenants, benchmarks, inputs and arrival times — through traffic seed
// 1 + (n-1) mod trafficSeeds, the seeds with recorded references, so any
// seed is accepted. The program's input corpus stays at corpusSeed: a
// corpus drawn from another seed changes the work per request by up to a
// third (measured on serve-steady), which would swamp the run-to-run
// comparison the benchmark exists for.
const (
	trafficSeeds = 8
	corpusSeed   = 1
)

func trafficSeed(n int64) int64 {
	return 1 + ((n-1)%trafficSeeds+trafficSeeds)%trafficSeeds
}

// serveBenches is the serve workloads' benchmark mix: the CI load test's.
var serveBenches = []string{"compress", "search", "euler", "moldyn"}

// nproc is the parallelism the benchmark may use: GOMAXPROCS, capped at
// the CPU count.
func nproc() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters reads the program's own counters by key and adds them to out.
// stats is the JSON of a /v1/stats body (serve) or of the equivalent
// {"trace", "plan_install"} blocks (batch). A missing key leaves its
// metric absent rather than failing the run, since the counters may move
// between packages.
func counters(stats map[string]any, out map[string]float64) {
	get := func(path ...string) (float64, bool) {
		var cur any = stats
		for _, p := range path {
			m, ok := cur.(map[string]any)
			if !ok {
				return 0, false
			}
			cur = m[p]
		}
		v, ok := cur.(float64)
		return v, ok
	}
	head, ok1 := get("trace", "head_entries")
	osr, ok2 := get("trace", "osr_entries")
	if ok1 && ok2 {
		out["interp.trace_entries"] = head + osr
		if exits, ok := get("trace", "side_exits"); ok {
			out["interp.side_exits_per_entry"] = ratio(exits, head+osr)
		}
	}
	if v, ok := get("trace", "built"); ok {
		out["interp.traces_built"] = v
	}
	if deg, ok := stats["trace"].(map[string]any); ok {
		var n float64
		if m, ok := deg["degrade"].(map[string]any); ok {
			for _, v := range m {
				if f, ok := v.(float64); ok {
					n += f
				}
			}
		}
		out["interp.degraded"] = n
	}
	if pi, ok := stats["plan_install"].(map[string]any); ok {
		var n float64
		for _, v := range pi {
			if f, ok := v.(float64); ok {
				n += f
			}
		}
		out["interp.plan_lost"] = n
	}
	code, base := harness.CodeCacheStats(), harness.BaselineCacheStats()
	out["jit.code_hit_ratio"] = ratio(float64(code.Hits), float64(code.Hits+code.Misses))
	out["harness.baseline_hit_ratio"] = ratio(float64(base.Hits), float64(base.Hits+base.Misses))
}

// serverStats fetches /v1/stats through the server's own handler.
func serverStats(h http.Handler) (map[string]any, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return nil, err
	}
	return m, nil
}

// batchStats is the batch equivalent of /v1/stats' counter blocks (what
// `expdriver -tracestats` prints).
func batchStats() (map[string]any, error) {
	raw, err := json.Marshal(map[string]any{
		"trace":        interp.ReadTraceStats(),
		"plan_install": interp.ReadPlanInstallStats(),
	})
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(raw, &m)
}

// serveLayers fills the serve.* per-layer metrics shared by both serve
// workloads from the stats body.
func serveLayers(stats map[string]any, out map[string]float64) {
	if v, ok := stats["chains"].(float64); ok {
		out["serve.chains"] = v
	}
	if v, ok := stats["epoch"].(float64); ok {
		out["serve.epochs"] = v + 1 // the index of the current epoch
	}
	if v, ok := stats["rejected"].(float64); ok {
		out["serve.rejected"] = v
	}
	counters(stats, out)
}

// noServe marks the serve-only per-layer metrics as not exercised.
func noServe(out map[string]float64) {
	for _, m := range layerMetrics {
		if strings.HasPrefix(m.name, "serve.") || strings.HasPrefix(m.name, "loadgen.") {
			out[m.name] = 0
		}
	}
}
