package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// e2eMetrics are what a user of the system sees, reported with --trace 0
// on every workload. "Operation" is a request on the serve workloads and
// one whole Figure 10 experiment on fig10 (see README.md).
var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"slo_attain", "ratio"},
	{"exp_wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// overheadOf are the end-to-end metrics whose traced-minus-untraced
// difference --trace 1 reports as overhead.<name>. Set-up runs untraced
// in both modes and peak RSS covers the traced run's post-phase, so
// neither difference would measure the tracing.
var overheadOf = []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "slo_attain", "exp_wall_s", "cpu_s"}

// layerMetrics are reported with --trace 1 on every workload. A serve.*
// or loadgen.* metric reads 0 on a workload that has no serving stack or
// no arrival schedule (README.md lists which).
var layerMetrics = []metricSpec{
	{"serve.wait_p50_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.exec_p50_ms", "ms"},
	{"serve.exec_p99_ms", "ms"},
	{"serve.cold_p99_ms", "ms"},
	{"serve.chains", "count"},
	{"serve.epochs", "count"},
	{"serve.rejected", "count"},
	{"serve.predicted_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"session.snapshot_ms", "ms"},
	{"session.snapshot_kb", "KiB"},
	{"session.restore_ms", "ms"},
	{"xicl.features_ms", "ms"},
	{"xicl.fv_hit_ratio", "ratio"},
	{"core.predict_ms", "ms"},
	{"core.learn_ms", "ms"},
	{"vm.hook_calls", "count"},
	{"exec.run_self_ms", "ms"},
	{"harness.baseline_ms", "ms"},
	{"jit.recompiles", "count"},
	{"jit.compile_mcycles", "Mcycles"},
	{"jit.code_hit_ratio", "ratio"},
	{"harness.baseline_hit_ratio", "ratio"},
	{"interp.trace_entries", "count"},
	{"interp.side_exits_per_entry", "ratio"},
	{"interp.traces_built", "count"},
	{"interp.degraded", "count"},
	{"interp.plan_lost", "count"},
	{"failed_frac", "ratio"},
}

// reportedMetrics lists, in print order, the metrics of one mode.
func reportedMetrics(traced bool) []metricSpec {
	if !traced {
		return e2eMetrics
	}
	out := append([]metricSpec(nil), layerMetrics...)
	for _, name := range overheadOf {
		out = append(out, metricSpec{"overhead." + name, unitOf(name)})
	}
	return out
}

func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// runConfig is one measurement's parameters, handed to a child process.
type runConfig struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"` // as given on the command line
	Seconds  time.Duration `json:"seconds"`
	Traced   bool          `json:"traced,omitempty"`
	// Replay makes an untraced child run the code a traced one runs, on
	// workloads whose traced run is a layer replay.
	Replay bool `json:"replay,omitempty"`
	// SetupOnly makes the child time the workload's set-up and exit.
	SetupOnly bool `json:"setup_only,omitempty"`
	// StartNanos is the wall clock when the parent started the child:
	// fig10's set-up is measured from process start.
	StartNanos int64  `json:"start_ns"`
	SpansPath  string `json:"spans_path,omitempty"`
}

// childResult is what one measurement process reports.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	// Latencies are the run's raw per-request latencies in ms, so the
	// parent can take exact percentiles over every repetition's samples.
	Latencies sample `json:"latencies,omitempty"`
}

// fail records a correctness failure, keeping the first few messages.
func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	r.errorf(format, args...)
}

// errorf records a correctness failure that is not one operation's.
func (r *childResult) errorf(format string, args ...any) {
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// result is what the parent reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Errors    []string
	Notes     []string
	Meta      meta
}

// setupReps cold set-ups per run, in their own processes; setup_s is
// their median.
const setupReps = 9

// minReps is the fewest cold repetitions a repeating workload makes.
const minReps = 3

func measure(w *workload, cfg runConfig, traced bool) (*result, error) {
	res := &result{Meta: collectMeta(cfg, traced)}
	if w.slices > 0 {
		cfg.Seconds /= time.Duration(w.slices)
	}
	var runs []*childResult
	if traced {
		// Interleaved triples, so a drift of the host's speed hits every
		// kind of run alike.
		rc := cfg
		rc.Replay = true
		tc := cfg
		tc.Traced = true
		tc.SpansPath = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", cfg.Workload, cfg.Seed)
		var us, bases, ts []*childResult
		for range minReps {
			u, err := spawn(cfg)
			if err != nil {
				return nil, err
			}
			us = append(us, u)
			if w.replayTraced {
				b, err := spawn(rc)
				if err != nil {
					return nil, err
				}
				bases = append(bases, b)
			}
			t, err := spawn(tc)
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
		}
		if !w.replayTraced {
			bases = us
		} else {
			runs = append(runs, bases...)
		}
		runs = append(append(runs, us...), ts...)
		res.Metrics = tracedMetrics(us, bases, ts)
		res.Notes = append(res.Notes, fmt.Sprintf("%d untraced and %d traced repetitions; per-layer values are medians over them; spans of the last traced one in %s",
			len(us), len(ts), tc.SpansPath))
		res.Notes = append(res.Notes, ts[len(ts)-1].Notes...)
		if w.replayTraced {
			d := func(name string) float64 { return medianOf(bases, name) - medianOf(us, name) }
			res.Notes = append(res.Notes, fmt.Sprintf("untraced layer replay minus untraced workload (medians): %+.4g s wall, %+.4g s CPU",
				d("exp_wall_s"), d("cpu_s")))
		}
	} else {
		var setups []float64
		for i := 0; i < setupReps; i++ {
			sc := cfg
			sc.SetupOnly = true
			s, err := spawn(sc)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.E2E["setup_s"])
		}
		reps := w.slices
		if reps == 0 {
			reps = minReps
		}
		start := time.Now()
		for len(runs) < reps || (w.slices == 0 && time.Since(start) < cfg.Seconds) {
			r, err := spawn(cfg)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		res.Metrics = mergeReps(runs)
		if pooled := pooledLatencies(runs); len(pooled) > 0 {
			res.Notes = append(res.Notes, latencyNote("request latency, all repetitions", pooled))
		}
		for i, r := range runs {
			var b strings.Builder
			for _, m := range e2eMetrics {
				if v, ok := r.E2E[m.name]; ok {
					fmt.Fprintf(&b, " %s=%.4g", m.name, v)
				}
			}
			res.Notes = append(res.Notes, fmt.Sprintf("repetition %d:%s", i+1, b.String()))
		}
		res.Metrics["setup_s"] = sample(setups).q(p50)
		res.Meta.Reps = len(runs)
		res.Notes = append(res.Notes, runs[0].Notes...)
	}
	for _, r := range runs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Errors = append(res.Errors, r.Errors...)
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// mergeReps folds cold repetitions into one set of end-to-end metrics.
// Latency percentiles are exact nearest-rank values over the raw samples
// of every repetition when the repetitions report them (the serve
// workloads); every other metric is its median over the repetitions.
func mergeReps(runs []*childResult) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range e2eMetrics {
		var vals sample
		for _, r := range runs {
			if v, ok := r.E2E[m.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out[m.name] = vals.q(p50)
		}
	}
	if pooled := pooledLatencies(runs); len(pooled) > 0 {
		out["latency_p50_ms"] = pooled.q(p50)
		out["latency_p99_ms"] = pooled.q(p99)
	}
	return out
}

func pooledLatencies(runs []*childResult) sample {
	var out sample
	for _, r := range runs {
		out = append(out, r.Latencies...)
	}
	return out
}

// tracedMetrics assembles --trace 1's output: per-layer values measured
// untraced where the untraced runs have them (counters, per-request
// quantiles), the span-derived values from the traced runs, each the
// median over its runs, and the tracing overhead of each end-to-end
// metric: the traced runs' median minus the bases', the same code run
// untraced.
func tracedMetrics(untraced, bases, traced []*childResult) map[string]float64 {
	out := make(map[string]float64)
	for _, runs := range [][]*childResult{traced, untraced} {
		for k := range runs[0].Layer {
			var vals sample
			for _, r := range runs {
				if v, ok := r.Layer[k]; ok {
					vals = append(vals, v)
				}
			}
			out[k] = vals.q(p50)
		}
	}
	for _, name := range overheadOf {
		out["overhead."+name] = medianOf(traced, name) - medianOf(bases, name)
	}
	return out
}

// medianOf is the median of one end-to-end metric over runs.
func medianOf(runs []*childResult, name string) float64 {
	var vals sample
	for _, r := range runs {
		vals = append(vals, r.E2E[name])
	}
	return vals.q(p50)
}

// spawn runs one measurement in a fresh child process and returns its
// result, with the child's peak RSS added.
func spawn(cfg runConfig) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A safety net only: a healthy run ends long before it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*cfg.Seconds+150*time.Second)
	defer cancel()
	cfg.StartNanos = time.Now().UnixNano()
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "child", string(raw))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", cfg.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s child: bad result: %w", cfg.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && !cfg.SetupOnly {
		r.E2E["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is KiB on Linux
	}
	return &r, nil
}

// childMain is one measurement process: it prints its childResult as a
// JSON line.
func childMain(args []string) int {
	var cfg runConfig
	if len(args) != 1 || json.Unmarshal([]byte(args[0]), &cfg) != nil {
		fmt.Fprintln(os.Stderr, "evbench child: want one JSON config argument")
		return 2
	}
	w := workloadByName(cfg.Workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "evbench child: unknown workload %q\n", cfg.Workload)
		return 2
	}
	var res *childResult
	if cfg.SetupOnly {
		d, err := w.setup(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "evbench child: set-up: %v\n", err)
			return 1
		}
		res = &childResult{E2E: map[string]float64{"setup_s": d.Seconds()}}
	} else {
		var t *tracer
		if cfg.Traced {
			t = newTracer()
		}
		var err error
		res, err = w.run(cfg, t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "evbench child: %s: %v\n", cfg.Workload, err)
			return 1
		}
		if t != nil && cfg.SpansPath != "" {
			if err := t.write(cfg.SpansPath); err != nil {
				fmt.Fprintf(os.Stderr, "evbench child: spans: %v\n", err)
			}
		}
		res.Layer["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit, the run metadata,
// and, last, the one-line JSON result.
func report(w io.Writer, res *result, traced bool) {
	res.Meta.ProbeAfterMs = probeMs()
	mj, _ := json.Marshal(res.Meta)
	fmt.Fprintf(w, "# meta %s\n", mj)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm)
	for _, m := range reportedMetrics(traced) {
		v, ok := res.Metrics[m.name]
		if !ok {
			fmt.Fprintf(w, "%-30s %16s %s\n", m.name, "absent", m.unit)
			continue
		}
		v = finite(v)
		metrics[m.name] = jm{v, m.unit}
		fmt.Fprintf(w, "%-30s %16.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(w, "# %d of %d operations failed\n", res.Failed, res.Attempted)
	notes := append([]string(nil), res.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "# FAILED: %s\n", e)
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintf(w, "%s\n", out)
}
