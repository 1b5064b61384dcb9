package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// meta describes where and on what a result was measured. Results taken
// on different CPUs are not comparable: compareMain refuses them.
type meta struct {
	CPUModel   string  `json:"cpu_model"`
	CPUMHz     float64 `json:"cpu_mhz"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// Tree identifies the measured source tree: `git stash create` (which
	// covers uncommitted edits), else HEAD, else a hash of the files.
	Tree     string `json:"tree"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Reps     int    `json:"reps,omitempty"`
	// ProbeBeforeMs and ProbeAfterMs time the calibration probe just
	// before and just after the run.
	ProbeBeforeMs float64 `json:"probe_before_ms"`
	ProbeAfterMs  float64 `json:"probe_after_ms"`
}

// The host's speed drifts while its CPU model and clock stay the same
// (other tenants of the machine, CPU steal): one serve-steady setting
// gave 374 req/s in one half hour and 680 req/s in the next. The
// calibration probe is a fixed task that runs none of the program's
// code, so its time moves only with the host. A result whose probe moved
// by more than probeTolerance — between two results, or across one run —
// was taken on a host running at another speed.
const (
	probeTolerance = 0.10
	probeReps      = 5
)

// probeMs times probeReps rounds of the calibration task and returns the
// median in milliseconds.
func probeMs() float64 {
	buf := make([]byte, 4<<20)
	keys := make([]uint64, 1<<17)
	var times sample
	for range probeReps {
		start := time.Now()
		probeTask(buf, keys)
		times = append(times, ms(time.Since(start)))
	}
	return times.q(p50)
}

// probeTask hashes a buffer, sorts pseudo-random keys and fills a map:
// arithmetic, branches, memory and allocation, on one core.
func probeTask(buf []byte, keys []uint64) {
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range buf {
		buf[i] = byte(next())
	}
	sum := sha256.Sum256(buf)
	for i := range keys {
		keys[i] = next()
	}
	slices.Sort(keys)
	m := make(map[uint64]int, len(keys)/4)
	for i, k := range keys[:len(keys)/4] {
		m[k^uint64(sum[i%len(sum)])] = i
	}
	if len(m) == 0 {
		panic("probe")
	}
}

// drift is the relative change from probe time a to b.
func drift(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Abs(b-a) / a
}

// probeOf is a result's probe time: the mean of its two probes.
func probeOf(m meta) float64 { return (m.ProbeBeforeMs + m.ProbeAfterMs) / 2 }

func collectMeta(cfg runConfig, traced bool) meta {
	model, mhz := cpuInfo()
	return meta{
		CPUModel:   model,
		CPUMHz:     mhz,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Tree:       treeHash("."),
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    int(cfg.Seconds.Seconds()),
		Trace:      traced,

		ProbeBeforeMs: probeMs(),
	}
}

// cpuInfo reads the first processor's model name and clock from
// /proc/cpuinfo. The clock matters: one model name can cover Xeons of
// different frequencies.
func cpuInfo() (string, float64) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH, 0
	}
	defer f.Close()
	model, mhz := "", 0.0
	sc := bufio.NewScanner(f)
	for sc.Scan() && (model == "" || mhz == 0) {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			model = strings.TrimSpace(v)
		case "cpu MHz":
			mhz, _ = strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return model, mhz
}

// treeHash names the source tree in dir.
func treeHash(dir string) string {
	if _, err := os.Stat(filepath.Join(dir, ".git")); err == nil {
		for _, args := range [][]string{{"stash", "create"}, {"rev-parse", "HEAD"}} {
			out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
			if h := strings.TrimSpace(string(out)); err == nil && h != "" {
				return "git:" + h
			}
		}
	}
	return "files:" + filesHash(dir)
}

// filesHash hashes the path and content of every regular file under dir,
// skipping dot-directories (build output, VCS metadata).
func filesHash(dir string) string {
	var paths []string
	_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != dir && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// savedRun is a benchmark output read back from a file: its metadata
// line and its final JSON result.
type savedRun struct {
	Meta    meta
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readSaved(path string) (*savedRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var run savedRun
	haveMeta := false
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# meta "); ok {
			if err := json.Unmarshal([]byte(rest), &run.Meta); err != nil {
				return nil, fmt.Errorf("%s: meta: %w", path, err)
			}
			haveMeta = true
		}
	}
	if !haveMeta {
		return nil, fmt.Errorf("%s: no '# meta' line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return &run, nil
}

// comparable reports why two results must not be compared, or "".
func comparable(a, b meta) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU model %q vs %q", a.CPUModel, b.CPUModel)
	case a.CPUMHz > 0 && b.CPUMHz > 0 && math.Abs(a.CPUMHz-b.CPUMHz) > 0.05*a.CPUMHz:
		return fmt.Sprintf("CPU clock %.0f MHz vs %.0f MHz", a.CPUMHz, b.CPUMHz)
	case a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("nproc/GOMAXPROCS %d/%d vs %d/%d", a.NProc, a.GOMAXPROCS, b.NProc, b.GOMAXPROCS)
	case a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace:
		return fmt.Sprintf("workload %s/%ds/trace=%t vs %s/%ds/trace=%t",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	for _, m := range []meta{a, b} {
		if d := drift(m.ProbeBeforeMs, m.ProbeAfterMs); d > probeTolerance {
			return fmt.Sprintf("host speed moved during a run: probe %.1f ms before, %.1f ms after",
				m.ProbeBeforeMs, m.ProbeAfterMs)
		}
	}
	if d := drift(probeOf(a), probeOf(b)); d > probeTolerance {
		return fmt.Sprintf("host speed differs: probe %.1f ms vs %.1f ms", probeOf(a), probeOf(b))
	}
	return ""
}

// compareMain prints the relative change of every metric between two
// saved outputs of the benchmark. It refuses (exit 2) results taken on
// different machines or settings, or at different host speeds.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: evbench compare OLD NEW  (saved benchmark outputs)")
		return 2
	}
	a, err := readSaved(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "evbench compare: %v\n", err)
		return 2
	}
	b, err := readSaved(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "evbench compare: %v\n", err)
		return 2
	}
	if why := comparable(a.Meta, b.Meta); why != "" {
		fmt.Fprintf(os.Stderr, "evbench compare: refusing to compare: %s\n", why)
		return 2
	}
	fmt.Fprintf(w, "%s (%s, probe %.1f ms) -> %s (%s, probe %.1f ms)\n",
		args[0], a.Meta.Tree, probeOf(a.Meta), args[1], b.Meta.Tree, probeOf(b.Meta))
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		old := a.Metrics[n]
		nw, ok := b.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-30s %14.6g %14s %s\n", n, old.Value, "absent", old.Unit)
			continue
		}
		change := "n/a"
		if old.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nw.Value-old.Value)/old.Value)
		}
		fmt.Fprintf(w, "%-30s %14.6g %14.6g %-8s %s\n", n, old.Value, nw.Value, old.Unit, change)
	}
	return 0
}
