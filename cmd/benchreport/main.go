// Command benchreport converts `go test -bench` text output into a JSON
// artifact (BENCH_substrate.json in CI), aggregating repeated -count runs
// per benchmark so the numbers are robust to scheduler noise.
//
// The default artifact is an append-only *trajectory*: each invocation
// appends one snapshot (commit, date, machine, benchmark table) to the
// history instead of overwriting it, so the file records how performance
// evolved per commit. Re-running on the same commit replaces that
// commit's snapshot rather than growing the history. A pre-trajectory
// flat report is migrated into a one-entry history on first append.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -count 5 -benchmem . |
//	    benchreport -o BENCH_substrate.json
//	benchreport -flat -o new.json bench.out
//	benchreport compare [-warn 0.10] [-fail 0.25] old.json new.json
//
// compare diffs the latest snapshots of two artifacts (flat or
// trajectory) and exits 1 if any benchmark regressed by more than the
// warn threshold, 2 if by more than the fail threshold. Latency numbers
// (ns/op and "-ns" custom metrics) gate on the min across runs, not the
// mean: the minimum is the least-contended observation of the same work,
// so one descheduled repetition cannot fake a regression. Each row
// prints which basis it was judged on; comparisons fall back to the
// mean when either side's artifact predates min recording.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry aggregates every -count repetition of one benchmark.
type Entry struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	MinNsPerOp  float64 `json:"min_ns_per_op"`
	MeanNsPerOp float64 `json:"mean_ns_per_op"`
	MaxNsPerOp  float64 `json:"max_ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics aggregates custom benchmark units (testing.B.ReportMetric
	// or hand-emitted lines) as per-unit means — the serving load test
	// reports p99-ns, req/s, and virtual-cycle quantiles this way.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// MetricsMin holds the per-unit minimum across runs, the
	// outlier-robust basis compare gates "-ns" units on. Absent in
	// artifacts written before it existed; compare then falls back to
	// the mean for those units.
	MetricsMin map[string]float64 `json:"metrics_min,omitempty"`
}

// Report is one benchmark snapshot: the flat artifact layout, and one
// history element of the trajectory layout.
type Report struct {
	Commit     string  `json:"commit,omitempty"`
	Date       string  `json:"date,omitempty"`
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

// Trajectory is the append-only artifact layout: newest snapshot last.
type Trajectory struct {
	History []Report `json:"history"`
}

type sample struct {
	ns      float64
	bytes   int64
	allocs  int64
	hasMem  bool
	metrics map[string]float64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runGenerate(os.Args[1:], os.Stdout, os.Stderr))
}

func runGenerate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	flat := fs.Bool("flat", false, "write a single flat report instead of appending to a trajectory")
	commit := fs.String("commit", "", "commit id for the snapshot (default: git rev-parse --short HEAD)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var in io.Reader = os.Stdin
	if rest := fs.Args(); len(rest) == 1 {
		f, err := os.Open(rest[0])
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}

	rep, err := parse(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchreport: %v\n", err)
		return 1
	}

	var data []byte
	if *flat {
		data, err = json.MarshalIndent(rep, "", "  ")
	} else {
		rep.Commit = *commit
		if rep.Commit == "" {
			rep.Commit = gitHead()
		}
		rep.Date = time.Now().UTC().Format(time.RFC3339)
		var traj Trajectory
		if *out != "" {
			if traj, err = loadTrajectory(*out); err != nil {
				fmt.Fprintf(stderr, "benchreport: %v\n", err)
				return 1
			}
		}
		traj.append(*rep)
		data, err = json.MarshalIndent(traj, "", "  ")
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchreport: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchreport: %v\n", err)
		return 1
	}
	return 0
}

// append adds rep as the newest snapshot, replacing the newest existing
// snapshot when it carries the same non-empty commit id (re-running the
// bench target on one commit refreshes rather than duplicates).
func (t *Trajectory) append(rep Report) {
	if n := len(t.History); n > 0 && rep.Commit != "" && t.History[n-1].Commit == rep.Commit {
		t.History[n-1] = rep
		return
	}
	t.History = append(t.History, rep)
}

// loadTrajectory reads an existing artifact for appending. A missing file
// yields an empty trajectory; a pre-trajectory flat report becomes a
// one-entry history.
func loadTrajectory(path string) (Trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Trajectory{}, nil
	}
	if err != nil {
		return Trajectory{}, err
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err == nil && traj.History != nil {
		return traj, nil
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Benchmarks) == 0 {
		return Trajectory{}, fmt.Errorf("%s: neither a trajectory nor a flat report", path)
	}
	return Trajectory{History: []Report{rep}}, nil
}

// latestSnapshot reads an artifact in either layout and returns its
// newest snapshot, for comparison.
func latestSnapshot(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err == nil && len(traj.History) > 0 {
		return &traj.History[len(traj.History)-1], nil
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmark snapshot found", path)
	}
	return &rep, nil
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// runCompare diffs the latest snapshots of old and new artifacts.
// Latency gates on min-of-runs where both sides recorded it (mean
// otherwise); rows only one side has are listed as new or gone and never
// gate. Exit status: 0 all within the warn threshold, 1 some benchmark
// regressed past warn, 2 past fail.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	warn := fs.Float64("warn", 0.10, "fractional mean regression that makes the exit status 1")
	fail := fs.Float64("fail", 0.25, "fractional mean regression that makes the exit status 2")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) != 2 {
		fmt.Fprintln(stderr, "usage: benchreport compare [-warn F] [-fail F] old.json new.json")
		return 2
	}
	oldRep, err := latestSnapshot(rest[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchreport compare: %v\n", err)
		return 2
	}
	newRep, err := latestSnapshot(rest[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchreport compare: %v\n", err)
		return 2
	}
	status := compareReports(oldRep, newRep, *warn, *fail, stdout)
	switch status {
	case 1:
		fmt.Fprintf(stdout, "WARN: regression > %.0f%% detected\n", *warn*100)
	case 2:
		fmt.Fprintf(stdout, "FAIL: regression > %.0f%% detected\n", *fail*100)
	}
	return status
}

func compareReports(oldRep, newRep *Report, warn, fail float64, w io.Writer) int {
	oldBy := make(map[string]Entry, len(oldRep.Benchmarks))
	for _, e := range oldRep.Benchmarks {
		oldBy[e.Name] = e
	}
	status := 0
	fresh := 0
	// The basis column shows which statistic the row was judged on (min
	// where both sides recorded it, mean for legacy baselines); the runs
	// column shows how many samples each side's gate rests on (old/new) —
	// a comparison against a single-run baseline is noise-prone, and the
	// columns make both visible instead of implicit.
	fmt.Fprintf(w, "%-34s %14s %14s %8s  %5s  %9s\n", "benchmark", "old", "new", "delta", "basis", "runs(o/n)")
	for _, ne := range newRep.Benchmarks {
		oe, ok := oldBy[ne.Name]
		if !ok || oe.MeanNsPerOp <= 0 {
			// Absent from the baseline: nothing to regress against, so the
			// row is informational only and never gates — a newly landed
			// benchmark's first run must be green.
			fresh++
			fmt.Fprintf(w, "%-34s %14s %14.0f %8s  %5s  %9s\n", ne.Name, "-", ne.MeanNsPerOp, "new", "-", fmt.Sprintf("-/%d", ne.Runs))
			continue
		}
		// Min-of-runs is the outlier-robust latency estimator: the same
		// code cannot get faster by luck, only slower by interference, so
		// the minimum is the cleanest observation on both sides. Old
		// snapshots missing the min (pre-recording artifacts use 0) fall
		// back to the mean.
		ov, nv, basis := oe.MeanNsPerOp, ne.MeanNsPerOp, "mean"
		if oe.MinNsPerOp > 0 && ne.MinNsPerOp > 0 {
			ov, nv, basis = oe.MinNsPerOp, ne.MinNsPerOp, "min"
		}
		delta := nv/ov - 1
		mark, status2 := judge(delta, warn, fail)
		if status2 > status {
			status = status2
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %+7.1f%%%s  %5s  %9s\n",
			ne.Name, ov, nv, delta*100, mark, basis, fmt.Sprintf("%d/%d", oe.Runs, ne.Runs))
		// Custom latency metrics (unit suffix "-ns", e.g. the serving load
		// test's p99-ns) gate exactly like ns/op; other units — through-
		// put, virtual cycles — are shown but never fail the comparison,
		// since bigger is not uniformly worse for them.
		units := make([]string, 0, len(ne.Metrics))
		for unit := range ne.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			ov, ok := oe.Metrics[unit]
			if !ok || ov <= 0 {
				continue
			}
			nv := ne.Metrics[unit]
			basis := "mean"
			if omv := oe.MetricsMin[unit]; omv > 0 {
				if nmv := ne.MetricsMin[unit]; nmv > 0 {
					ov, nv, basis = omv, nmv, "min"
				}
			}
			delta := nv/ov - 1
			mark := ""
			if strings.HasSuffix(unit, "-ns") {
				var s2 int
				mark, s2 = judge(delta, warn, fail)
				if s2 > status {
					status = s2
				}
			}
			fmt.Fprintf(w, "%-34s %14.0f %14.0f %+7.1f%%%s  %5s\n",
				ne.Name+" ["+unit+"]", ov, nv, delta*100, mark, basis)
		}
	}
	if fresh > 0 {
		fmt.Fprintf(w, "note: %d benchmark(s) not in baseline; comparison skipped for them\n", fresh)
	}
	// Baseline rows the new report lacks: a deleted or renamed benchmark
	// is shown, never gated, so it cannot vanish from the comparison
	// without a word.
	newBy := make(map[string]bool, len(newRep.Benchmarks))
	for _, ne := range newRep.Benchmarks {
		newBy[ne.Name] = true
	}
	gone := 0
	for _, oe := range oldRep.Benchmarks {
		if !newBy[oe.Name] {
			gone++
			fmt.Fprintf(w, "%-34s %14.0f %14s %8s  %5s  %9s\n", oe.Name, oe.MeanNsPerOp, "-", "gone", "-", fmt.Sprintf("%d/-", oe.Runs))
		}
	}
	if gone > 0 {
		fmt.Fprintf(w, "note: %d baseline benchmark(s) missing from the new report\n", gone)
	}
	return status
}

// judge classifies one fractional regression against the thresholds.
func judge(delta, warn, fail float64) (string, int) {
	switch {
	case delta > fail:
		return " FAIL", 2
	case delta > warn:
		return " warn", 1
	}
	return "", 0
}

func parse(in io.Reader) (*Report, error) {
	rep := &Report{}
	samples := make(map[string][]sample)
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8  N  123 ns/op [ 456 B/op  7 allocs/op ]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		s := sample{ns: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "B/op":
				s.bytes, s.hasMem = int64(v), true
			case "allocs/op":
				s.allocs, s.hasMem = int64(v), true
			default:
				if s.metrics == nil {
					s.metrics = make(map[string]float64)
				}
				s.metrics[unit] = v
			}
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	sort.Strings(order)
	for _, name := range order {
		ss := samples[name]
		e := Entry{Name: name, Runs: len(ss), MinNsPerOp: ss[0].ns, MaxNsPerOp: ss[0].ns}
		var sum float64
		for _, s := range ss {
			sum += s.ns
			if s.ns < e.MinNsPerOp {
				e.MinNsPerOp = s.ns
			}
			if s.ns > e.MaxNsPerOp {
				e.MaxNsPerOp = s.ns
			}
			if s.hasMem {
				e.BytesPerOp, e.AllocsPerOp = s.bytes, s.allocs
			}
		}
		e.MeanNsPerOp = sum / float64(len(ss))
		metricSums := make(map[string]float64)
		metricRuns := make(map[string]int)
		metricMins := make(map[string]float64)
		for _, s := range ss {
			for unit, v := range s.metrics {
				metricSums[unit] += v
				metricRuns[unit]++
				if cur, ok := metricMins[unit]; !ok || v < cur {
					metricMins[unit] = v
				}
			}
		}
		for unit, total := range metricSums {
			if e.Metrics == nil {
				e.Metrics = make(map[string]float64)
				e.MetricsMin = make(map[string]float64)
			}
			e.Metrics[unit] = total / float64(metricRuns[unit])
			e.MetricsMin[unit] = metricMins[unit]
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	return rep, nil
}
