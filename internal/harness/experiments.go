package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"evolvevm/internal/core"
	"evolvevm/internal/exec"
	"evolvevm/internal/programs"
	"evolvevm/internal/session"
	"evolvevm/internal/stats"
)

// Options scales the experiments. The zero value reproduces the paper's
// setup; Quick shrinks corpora and sequences for fast test runs.
type Options struct {
	// Seed drives corpus generation and input arrival order. Derived
	// random streams are named, not offset: see stats.Stream.
	Seed int64
	// Benchmarks filters the suite by name (nil = all).
	Benchmarks []string
	// Runs overrides the runs-per-benchmark (0 = the paper's 30, or 70
	// for benchmarks with many inputs).
	Runs int
	// Corpus overrides each benchmark's corpus size (0 = default).
	Corpus int
	// Quick reduces corpora and sequences for unit tests.
	Quick bool
	// Parallel runs independent work units concurrently on one worker per
	// CPU. Results are bit-identical either way: units are scheduled by a
	// deterministic dependency graph and merged in canonical order.
	Parallel bool
	// Workers overrides the scheduler's worker count (0 = derive from
	// Parallel). Workers=1 is fully serial.
	Workers int
	// Session, when non-nil, memoizes completed work units and enables
	// checkpoint/resume (expdriver -checkpoint/-resume). Nil runs with an
	// ephemeral session.
	Session *session.Session
	// Substrate sets the host-performance mechanisms of every runner the
	// experiment builds (zero value: production). Virtual results are
	// provably independent of it (the substrate equivalence suites); the
	// benchmark variant columns use it to measure the host-side effect of
	// individual tiers on whole experiments.
	Substrate exec.Substrate
}

// newRunner builds a runner for b with the experiment's substrate
// applied.
func (o Options) newRunner(b *programs.Benchmark) (*Runner, error) {
	r, err := NewRunner(b, o.corpusFor(b), o.Seed)
	if err != nil {
		return nil, err
	}
	r.Substrate = o.Substrate
	return r, nil
}

func (o Options) suite() ([]*programs.Benchmark, error) {
	if len(o.Benchmarks) == 0 {
		return programs.All(), nil
	}
	return LookupBenchmarks(o.Benchmarks)
}

// LookupBenchmarks resolves benchmark names in order. An unknown name is
// an error rather than a silent omission, which would run a partial
// suite (or none) and misalign index-addressed result slots.
func LookupBenchmarks(names []string) ([]*programs.Benchmark, error) {
	out := make([]*programs.Benchmark, 0, len(names))
	for _, name := range names {
		b := programs.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("harness: no benchmark %q", name)
		}
		out = append(out, b)
	}
	return out, nil
}

func (o Options) corpusFor(b *programs.Benchmark) int {
	if o.Corpus > 0 {
		return o.Corpus
	}
	if o.Quick {
		n := b.DefaultCorpusSize / 3
		if n < 3 {
			n = 3
		}
		return n
	}
	return b.DefaultCorpusSize
}

func (o Options) runsFor(b *programs.Benchmark) int {
	if o.Runs > 0 {
		return o.Runs
	}
	if o.Quick {
		return 12
	}
	// Paper: 30 runs, or 70 for programs with many inputs.
	if b.DefaultCorpusSize >= 40 {
		return 70
	}
	return 30
}

// sharedRunner builds one lazily constructed runner shared by the units
// of one benchmark arm. Construction happens inside whichever unit runs
// first; sync.OnceValues makes that safe and exactly-once.
func (o Options) sharedRunner(b *programs.Benchmark) func() (*Runner, error) {
	return sync.OnceValues(func() (*Runner, error) {
		return o.newRunner(b)
	})
}

// ---------------------------------------------------------------------
// Experiment E1 — Table I
// ---------------------------------------------------------------------

// Table1Row mirrors one row of the paper's Table I.
type Table1Row struct {
	Program   string
	Suite     string
	Inputs    int
	MinMcyc   float64 // min default running time, Mcycles (the paper's s)
	MaxMcyc   float64
	TotalFeat int
	UsedFeat  int
	Conf      float64 // mean confidence over the second half of the runs
	Acc       float64 // mean prediction accuracy over the second half
}

// table1Defaults is the corpus-characterization unit of one benchmark.
type table1Defaults struct {
	Inputs    int
	MinMcyc   float64
	MaxMcyc   float64
	TotalFeat int
}

// table1Evolve is the learning unit of one benchmark.
type table1Evolve struct {
	Conf     float64
	Acc      float64
	UsedFeat int
}

// Table1 reproduces the paper's Table I: per benchmark, the corpus size,
// the running-time range under the Default VM, the raw and tree-selected
// feature counts, and Evolve's confidence and accuracy.
func Table1(ctx context.Context, w io.Writer, opts Options) ([]Table1Row, error) {
	suite, err := opts.suite()
	if err != nil {
		return nil, err
	}
	p := opts.planner("table1")
	defs := make([]table1Defaults, len(suite))
	evs := make([]table1Evolve, len(suite))
	for i, b := range suite {
		b := b
		runner := opts.sharedRunner(b)
		unit(p, "defaults/"+b.Name, &defs[i], nil, func(ctx context.Context) (table1Defaults, error) {
			var out table1Defaults
			r, err := runner()
			if err != nil {
				return out, err
			}
			if err := r.WarmDefaults(ctx); err != nil {
				return out, err
			}
			minC, maxC := int64(1<<62), int64(0)
			for _, in := range r.Inputs {
				c, err := r.DefaultCycles(ctx, in)
				if err != nil {
					return out, err
				}
				if c < minC {
					minC = c
				}
				if c > maxC {
					maxC = c
				}
			}
			vec, _, err := r.Features(r.Inputs[0])
			if err != nil {
				return out, err
			}
			return table1Defaults{
				Inputs:    len(r.Inputs),
				MinMcyc:   float64(minC) / 1e6,
				MaxMcyc:   float64(maxC) / 1e6,
				TotalFeat: len(vec),
			}, nil
		})
		unit(p, "evolve/"+b.Name, &evs[i], nil, func(ctx context.Context) (table1Evolve, error) {
			var out table1Evolve
			r, err := runner()
			if err != nil {
				return out, err
			}
			order := r.Order(stats.Stream(opts.Seed, "table1", "order", b.Name), opts.runsFor(b))
			results, err := r.RunSequence(ctx, ScenarioEvolve, order)
			if err != nil {
				return out, err
			}
			var confs, accs []float64
			for _, res := range results[len(results)/2:] {
				if res.Evolve != nil {
					confs = append(confs, res.Evolve.Confidence)
					accs = append(accs, res.Evolve.Accuracy)
				}
			}
			return table1Evolve{
				Conf:     stats.Mean(confs),
				Acc:      stats.Mean(accs),
				UsedFeat: len(r.Evolver().UsedFeatureNames()),
			}, nil
		})
	}
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}

	rows := make([]Table1Row, len(suite))
	for i, b := range suite {
		rows[i] = Table1Row{
			Program: b.Name, Suite: b.Suite,
			Inputs: defs[i].Inputs, MinMcyc: defs[i].MinMcyc, MaxMcyc: defs[i].MaxMcyc,
			TotalFeat: defs[i].TotalFeat, UsedFeat: evs[i].UsedFeat,
			Conf: evs[i].Conf, Acc: evs[i].Acc,
		}
	}

	fmt.Fprintln(w, "Table I — Benchmarks (running time in Mcycles; conf/acc from Evolve)")
	fmt.Fprintf(w, "%-11s %-7s %7s %9s %9s %6s %5s %6s %6s\n",
		"Program", "Suite", "#Inputs", "MinTime", "MaxTime", "Total", "Used", "conf", "acc")
	for _, row := range rows {
		fmt.Fprintf(w, "%-11s %-7s %7d %9.2f %9.2f %6d %5d %6.2f %6.2f\n",
			row.Program, row.Suite, row.Inputs, row.MinMcyc, row.MaxMcyc,
			row.TotalFeat, row.UsedFeat, row.Conf, row.Acc)
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Experiment E2 — Figure 8
// ---------------------------------------------------------------------

// Fig8Series holds the temporal curves for one benchmark.
type Fig8Series struct {
	Program    string
	Confidence []float64
	Accuracy   []float64
	EvolveSpd  []float64
	RepSpd     []float64
}

type fig8Evolve struct {
	Confidence []float64
	Accuracy   []float64
	Speedup    []float64
}

// Figure8 reproduces the paper's Figure 8 for Mtrt and RayTracer: the
// temporal evolution of Evolve's confidence and prediction accuracy, with
// per-run speedups of Evolve and Rep over Default under the same random
// input arrival order.
func Figure8(ctx context.Context, w io.Writer, opts Options) ([]Fig8Series, error) {
	if opts.Benchmarks == nil {
		opts.Benchmarks = []string{"mtrt", "raytracer"}
	}
	suite, err := opts.suite()
	if err != nil {
		return nil, err
	}
	p := opts.planner("figure8")
	evs := make([]fig8Evolve, len(suite))
	reps := make([][]float64, len(suite))
	runsBy := make([]int, len(suite))
	for i, b := range suite {
		b := b
		runsBy[i] = opts.runsFor(b)
		runner := opts.sharedRunner(b)
		orderFor := func(r *Runner) []int {
			return r.Order(stats.Stream(opts.Seed, "figure8", "order", b.Name), opts.runsFor(b))
		}
		unit(p, "evolve/"+b.Name, &evs[i], nil, func(ctx context.Context) (fig8Evolve, error) {
			var out fig8Evolve
			r, err := runner()
			if err != nil {
				return out, err
			}
			results, err := r.RunSequence(ctx, ScenarioEvolve, orderFor(r))
			if err != nil {
				return out, err
			}
			for _, res := range results {
				out.Confidence = append(out.Confidence, res.Evolve.Confidence)
				out.Accuracy = append(out.Accuracy, res.Evolve.Accuracy)
				out.Speedup = append(out.Speedup, res.Speedup)
			}
			return out, nil
		})
		unit(p, "rep/"+b.Name, &reps[i], nil, func(ctx context.Context) ([]float64, error) {
			r, err := runner()
			if err != nil {
				return nil, err
			}
			results, err := r.RunSequence(ctx, ScenarioRep, orderFor(r))
			if err != nil {
				return nil, err
			}
			return Speedups(results), nil
		})
	}
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}

	out := make([]Fig8Series, len(suite))
	for i, b := range suite {
		out[i] = Fig8Series{
			Program:    b.Name,
			Confidence: evs[i].Confidence,
			Accuracy:   evs[i].Accuracy,
			EvolveSpd:  evs[i].Speedup,
			RepSpd:     reps[i],
		}
	}
	for i, s := range out {
		fmt.Fprintf(w, "\nFigure 8 — %s (%d runs)\n", s.Program, runsBy[i])
		AsciiSeries(w, "confidence (*) and prediction accuracy (o)",
			[]string{"confidence", "accuracy"},
			[][]float64{s.Confidence, s.Accuracy}, 10)
		AsciiSeries(w, "speedup over Default: Evolve (*) vs Rep (o)",
			[]string{"evolve speedup", "rep speedup"},
			[][]float64{s.EvolveSpd, s.RepSpd}, 10)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Experiment E3 — Figure 9
// ---------------------------------------------------------------------

// Fig9Point is one run in the running-time/speedup correlation study.
type Fig9Point struct {
	DefaultMcyc float64
	EvolveSpd   float64
	RepSpd      float64
}

// fig9Evolve records the learning sequence: which runs the guard
// released, their speedups, and their inputs' default times.
type fig9Evolve struct {
	Order     []int
	Predicted []bool
	Speedup   []float64
	DefCycles []int64
}

// Figure9 reproduces the paper's Figure 9 for Mtrt and Compress: the
// correlation between a run's Default running time and the speedup Evolve
// achieves, against Rep using a repository pre-filled with the whole
// corpus (the paper's "histogram of all runs" to avoid warmup). The
// initial non-predicting Evolve runs are excluded, as in the paper.
func Figure9(ctx context.Context, w io.Writer, opts Options) (map[string][]Fig9Point, error) {
	benches := opts.Benchmarks
	if benches == nil {
		benches = []string{"mtrt", "compress"}
	}
	if _, err := LookupBenchmarks(benches); err != nil {
		return nil, err
	}
	p := opts.planner("figure9")
	evs := make([]fig9Evolve, len(benches))
	reps := make([][]float64, len(benches))
	for i, name := range benches {
		i, name := i, name
		b := programs.ByName(name)
		runs := opts.runsFor(b)
		if !opts.Quick && opts.Runs == 0 && name == "mtrt" {
			runs = 92 // the paper's Mtrt sequence length
		}
		evKey := unit(p, "evolve/"+name, &evs[i], nil, func(ctx context.Context) (fig9Evolve, error) {
			var out fig9Evolve
			r, err := opts.newRunner(b)
			if err != nil {
				return out, err
			}
			out.Order = r.Order(stats.Stream(opts.Seed, "figure9", "order", name), runs)
			results, err := r.RunSequence(ctx, ScenarioEvolve, out.Order)
			if err != nil {
				return out, err
			}
			for k, res := range results {
				def, err := r.DefaultCycles(ctx, r.Inputs[out.Order[k]])
				if err != nil {
					return out, err
				}
				out.Predicted = append(out.Predicted, res.Evolve.Predicted)
				out.Speedup = append(out.Speedup, res.Speedup)
				out.DefCycles = append(out.DefCycles, def)
			}
			return out, nil
		})
		// Rep with a warmed repository: record a Default profile of every
		// corpus input once, then measure each predicted sequenced run.
		// Depends on the evolve unit: the guard's Predicted flags select
		// which runs execute, and Rep's state evolves per executed run.
		unit(p, "rep/"+name, &reps[i], []string{evKey}, func(ctx context.Context) ([]float64, error) {
			r2, err := opts.newRunner(b)
			if err != nil {
				return nil, err
			}
			if err := r2.PrefillRepository(ctx); err != nil {
				return nil, err
			}
			var spd []float64
			for k, idx := range evs[i].Order {
				if !evs[i].Predicted[k] {
					continue // paper excludes the pre-confidence runs
				}
				res, err := r2.RunOne(ctx, ScenarioRep, r2.Inputs[idx])
				if err != nil {
					return nil, err
				}
				spd = append(spd, res.Speedup)
			}
			return spd, nil
		})
	}
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}

	out := make(map[string][]Fig9Point)
	for i, name := range benches {
		var points []Fig9Point
		rep := reps[i]
		n := 0
		for k := range evs[i].Order {
			if !evs[i].Predicted[k] {
				continue
			}
			points = append(points, Fig9Point{
				DefaultMcyc: float64(evs[i].DefCycles[k]) / 1e6,
				EvolveSpd:   evs[i].Speedup[k],
				RepSpd:      rep[n],
			})
			n++
		}
		sort.Slice(points, func(a, z int) bool {
			return points[a].DefaultMcyc < points[z].DefaultMcyc
		})
		out[name] = points

		fmt.Fprintf(w, "\nFigure 9 — %s: speedup vs default running time (%d predicted runs)\n",
			name, len(points))
		fmt.Fprintf(w, "%10s %10s %10s\n", "def(Mcyc)", "evolve", "rep")
		for _, pt := range points {
			fmt.Fprintf(w, "%10.2f %10.3f %10.3f\n", pt.DefaultMcyc, pt.EvolveSpd, pt.RepSpd)
		}
		var times, evsS, repsS []float64
		for _, pt := range points {
			times = append(times, pt.DefaultMcyc)
			evsS = append(evsS, pt.EvolveSpd)
			repsS = append(repsS, pt.RepSpd)
		}
		fmt.Fprintf(w, "rank correlation(time, evolve-rep gap): %.3f\n",
			stats.Spearman(times, sub(evsS, repsS)))
	}
	return out, nil
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// PrefillRepository records one profile per corpus input into the Rep
// repository (Figure 9's warm-start, the paper's "histogram of all
// runs"). The recorded quantity is the per-function baseline-work
// profile, which is controller- and level-independent — so the prefill
// replays each input's profile from the process-wide baseline cache
// (measuring it once if missing) instead of executing a throwaway run
// per input. The resulting repository state is bit-identical to one
// built by executing every input under the Rep scenario.
func (r *Runner) PrefillRepository(ctx context.Context) error {
	repo := r.State.Repo()
	for _, in := range r.Inputs {
		bl, err := r.baseline(ctx, in)
		if err != nil {
			return err
		}
		repo.RecordWork(bl.work)
	}
	return nil
}

// ---------------------------------------------------------------------
// Experiment E4 — Figure 10
// ---------------------------------------------------------------------

// Fig10Row holds the speedup distributions of one benchmark.
type Fig10Row struct {
	Program string
	Evolve  stats.FiveNum
	Rep     stats.FiveNum
}

// Figure10 reproduces the paper's Figure 10: boxplots of per-run speedups
// for every benchmark under Evolve and Rep, over the same input order.
func Figure10(ctx context.Context, w io.Writer, opts Options) ([]Fig10Row, error) {
	suite, err := opts.suite()
	if err != nil {
		return nil, err
	}
	p := opts.planner("figure10")
	evolve := make([]stats.FiveNum, len(suite))
	repSum := make([]stats.FiveNum, len(suite))
	for i, b := range suite {
		b := b
		runner := opts.sharedRunner(b)
		orderFor := func(r *Runner) []int {
			return r.Order(stats.Stream(opts.Seed, "figure10", "order", b.Name), opts.runsFor(b))
		}
		seq := func(scenario Scenario) func(ctx context.Context) (stats.FiveNum, error) {
			return func(ctx context.Context) (stats.FiveNum, error) {
				r, err := runner()
				if err != nil {
					return stats.FiveNum{}, err
				}
				results, err := r.RunSequence(ctx, scenario, orderFor(r))
				if err != nil {
					return stats.FiveNum{}, err
				}
				return stats.Summary(Speedups(results)), nil
			}
		}
		unit(p, "evolve/"+b.Name, &evolve[i], nil, seq(ScenarioEvolve))
		unit(p, "rep/"+b.Name, &repSum[i], nil, seq(ScenarioRep))
	}
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}

	rows := make([]Fig10Row, len(suite))
	for i, b := range suite {
		rows[i] = Fig10Row{Program: b.Name, Evolve: evolve[i], Rep: repSum[i]}
	}
	fmt.Fprintln(w, "Figure 10 — speedup distributions (Evolve vs Rep, normalized to Default)")
	fmt.Fprintf(w, "%-11s %-7s %7s %7s %7s %7s %7s  %s\n",
		"Program", "VM", "min", "q1", "median", "q3", "max", "0.5 .. 2.0")
	lo, hi := 0.5, 2.0
	for _, row := range rows {
		for _, v := range []struct {
			name string
			f    stats.FiveNum
		}{{"evolve", row.Evolve}, {"rep", row.Rep}} {
			fmt.Fprintf(w, "%-11s %-7s %7.3f %7.3f %7.3f %7.3f %7.3f  [%s]\n",
				row.Program, v.name, v.f.Min, v.f.Q1, v.f.Median, v.f.Q3, v.f.Max,
				AsciiBox(v.f, lo, hi, 40))
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Experiment E5 — overhead analysis (§V-B.2)
// ---------------------------------------------------------------------

// OverheadRow reports Evolve's bookkeeping overhead for one benchmark.
type OverheadRow struct {
	Program     string
	MeanPct     float64
	MaxPct      float64
	MaxInput    string
	ExtractPart float64 // extraction share of overhead, mean
}

// Overhead reproduces the paper's overhead analysis: the fraction of run
// time Evolve spends on feature extraction and prediction (model
// construction happens after the run and is not charged).
func Overhead(ctx context.Context, w io.Writer, opts Options) ([]OverheadRow, error) {
	suite, err := opts.suite()
	if err != nil {
		return nil, err
	}
	p := opts.planner("overhead")
	rows := make([]OverheadRow, len(suite))
	for i, b := range suite {
		i, b := i, b
		unit(p, "evolve/"+b.Name, &rows[i], nil, func(ctx context.Context) (OverheadRow, error) {
			row := OverheadRow{Program: b.Name}
			r, err := opts.newRunner(b)
			if err != nil {
				return row, err
			}
			order := r.Order(stats.Stream(opts.Seed, "overhead", "order", b.Name), opts.runsFor(b))
			results, err := r.RunSequence(ctx, ScenarioEvolve, order)
			if err != nil {
				return row, err
			}
			var fracs []float64
			for _, res := range results {
				frac := 100 * float64(res.OverheadCycles) / float64(res.Cycles)
				fracs = append(fracs, frac)
				if frac > row.MaxPct {
					row.MaxPct, row.MaxInput = frac, res.InputID
				}
			}
			row.MeanPct = stats.Mean(fracs)
			return row, nil
		})
	}
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Overhead — Evolve bookkeeping as % of run time")
	fmt.Fprintf(w, "%-11s %8s %8s  %s\n", "Program", "mean%", "max%", "max on input")
	for _, row := range rows {
		fmt.Fprintf(w, "%-11s %8.3f %8.3f  %s\n", row.Program, row.MeanPct, row.MaxPct, row.MaxInput)
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Experiment E6 — sensitivity (§V-B.3)
// ---------------------------------------------------------------------

// SensitivityResult summarizes the threshold and order studies.
type SensitivityResult struct {
	Program string
	// ByThreshold maps TH_c to the Evolve speedup distribution.
	ByThreshold map[float64]stats.FiveNum
	// OrderWorstEvolve / OrderWorstRep: worst-case per-order minimum
	// speedup across the tried input orders.
	OrderMinEvolve []float64
	OrderMinRep    []float64
}

type sensitivityOrder struct {
	MinEvolve float64
	MinRep    float64
}

// Sensitivity reproduces §V-B.3: higher confidence thresholds make Evolve
// more conservative (smaller speedup ranges, better worst case), and
// changing the input arrival order hurts Rep more than Evolve. Every
// ⟨threshold⟩ and ⟨order⟩ arm is an independent work unit on its own
// fresh learner, so all of them run concurrently.
func Sensitivity(ctx context.Context, w io.Writer, opts Options) ([]SensitivityResult, error) {
	benches := opts.Benchmarks
	if benches == nil {
		benches = []string{"mtrt", "raytracer"}
	}
	if _, err := LookupBenchmarks(benches); err != nil {
		return nil, err
	}
	thresholds := []float64{0.5, 0.7, 0.9}
	orders := 5
	if opts.Quick {
		orders = 3
	}

	p := opts.planner("sensitivity")
	byTh := make([][]stats.FiveNum, len(benches))
	byOrder := make([][]sensitivityOrder, len(benches))
	for i, name := range benches {
		name := name
		b := programs.ByName(name)
		byTh[i] = make([]stats.FiveNum, len(thresholds))
		byOrder[i] = make([]sensitivityOrder, orders)

		for t, th := range thresholds {
			th := th
			unit(p, fmt.Sprintf("threshold/%s/%.1f", name, th), &byTh[i][t], nil,
				func(ctx context.Context) (stats.FiveNum, error) {
					r, err := opts.newRunner(b)
					if err != nil {
						return stats.FiveNum{}, err
					}
					r.EvolveCfg.ConfidenceThreshold = th
					r.ResetState()
					// All thresholds replay the same arrival order.
					order := r.Order(stats.Stream(opts.Seed, "sensitivity", "threshold-order", name),
						opts.runsFor(b))
					results, err := r.RunSequence(ctx, ScenarioEvolve, order)
					if err != nil {
						return stats.FiveNum{}, err
					}
					return stats.Summary(Speedups(results)), nil
				})
		}
		for o := 0; o < orders; o++ {
			o := o
			unit(p, fmt.Sprintf("order/%s/%d", name, o), &byOrder[i][o], nil,
				func(ctx context.Context) (sensitivityOrder, error) {
					var out sensitivityOrder
					r, err := opts.newRunner(b)
					if err != nil {
						return out, err
					}
					order := r.Order(stats.Stream(opts.Seed, "sensitivity", "order", name, strconv.Itoa(o)),
						opts.runsFor(b))
					evolveRes, err := r.RunSequence(ctx, ScenarioEvolve, order)
					if err != nil {
						return out, err
					}
					repRes, err := r.RunSequence(ctx, ScenarioRep, order)
					if err != nil {
						return out, err
					}
					out.MinEvolve = stats.Summary(Speedups(evolveRes)).Min
					out.MinRep = stats.Summary(Speedups(repRes)).Min
					return out, nil
				})
		}
	}
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}

	var out []SensitivityResult
	for i, name := range benches {
		res := SensitivityResult{Program: name, ByThreshold: map[float64]stats.FiveNum{}}
		for t, th := range thresholds {
			res.ByThreshold[th] = byTh[i][t]
		}
		for o := 0; o < orders; o++ {
			res.OrderMinEvolve = append(res.OrderMinEvolve, byOrder[i][o].MinEvolve)
			res.OrderMinRep = append(res.OrderMinRep, byOrder[i][o].MinRep)
		}
		out = append(out, res)

		fmt.Fprintf(w, "\nSensitivity — %s\n", name)
		fmt.Fprintf(w, "  threshold   min     q1    med     q3    max\n")
		for _, th := range thresholds {
			f := res.ByThreshold[th]
			fmt.Fprintf(w, "   TH=%.1f  %6.3f %6.3f %6.3f %6.3f %6.3f\n",
				th, f.Min, f.Q1, f.Median, f.Q3, f.Max)
		}
		fmt.Fprintf(w, "  worst-case speedup per input order:\n")
		fmt.Fprintf(w, "   evolve: %s (spread %.3f)\n",
			fmtFloats(res.OrderMinEvolve), spread(res.OrderMinEvolve))
		fmt.Fprintf(w, "   rep:    %s (spread %.3f)\n",
			fmtFloats(res.OrderMinRep), spread(res.OrderMinRep))
	}
	return out, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func spread(xs []float64) float64 {
	lo, hi := stats.MinMax(xs)
	return hi - lo
}

// ---------------------------------------------------------------------
// Experiment E7 — ablations (this reproduction's additions)
// ---------------------------------------------------------------------

// AblationResult compares design variants of the evolvable VM.
type AblationResult struct {
	Program string
	// Guarded vs unguarded discriminative prediction: speedup summary of
	// the first quarter of the sequence (where immature models bite).
	EarlyGuarded   stats.FiveNum
	EarlyUnguarded stats.FiveNum
	// Features ablation: accuracy with the full vector vs with the
	// vector truncated to its first feature.
	AccFull      float64
	AccTruncated float64
}

// ablationArm is one sequence variant's outcome: the early-run speedups
// (first quarter) and the second-half mean accuracy.
type ablationArm struct {
	Early []float64
	Acc   float64
}

// Ablation runs the design ablations DESIGN.md calls out: (a) disabling
// the discriminative guard (predict from run 1), and (b) collapsing the
// XICL feature vector to a single feature. Every ⟨variant, order⟩ arm is
// an independent unit.
func Ablation(ctx context.Context, w io.Writer, opts Options) ([]AblationResult, error) {
	benches := opts.Benchmarks
	if benches == nil {
		benches = []string{"mtrt", "compress"}
	}
	if _, err := LookupBenchmarks(benches); err != nil {
		return nil, err
	}
	// Aggregate the early-run (first quarter) speedups across several
	// arrival orders: the guard's value is worst-case protection, so a
	// single lucky order under-reports it.
	orders := 5
	if opts.Quick {
		orders = 2
	}

	p := opts.planner("ablation")
	guarded := make([][]ablationArm, len(benches))
	unguarded := make([][]ablationArm, len(benches))
	truncated := make([]ablationArm, len(benches))
	for i, name := range benches {
		name := name
		b := programs.ByName(name)
		guarded[i] = make([]ablationArm, orders)
		unguarded[i] = make([]ablationArm, orders)

		arm := func(threshold float64, truncate bool, o int) func(ctx context.Context) (ablationArm, error) {
			return func(ctx context.Context) (ablationArm, error) {
				var out ablationArm
				r, err := opts.newRunner(b)
				if err != nil {
					return out, err
				}
				r.EvolveCfg.ConfidenceThreshold = threshold
				r.ResetState()
				r.TruncateFeatures = truncate
				order := r.Order(stats.Stream(opts.Seed, "ablation", "order", name, strconv.Itoa(o)),
					opts.runsFor(b))
				results, err := r.RunSequence(ctx, ScenarioEvolve, order)
				if err != nil {
					return out, err
				}
				quarter := len(results) / 4
				if quarter < 2 {
					quarter = 2
				}
				out.Early = Speedups(results[:quarter])
				out.Acc = lastConfAcc(r.Evolver())
				return out, nil
			}
		}
		for o := 0; o < orders; o++ {
			unit(p, fmt.Sprintf("guarded/%s/%d", name, o), &guarded[i][o], nil, arm(0.7, false, o))
			unit(p, fmt.Sprintf("unguarded/%s/%d", name, o), &unguarded[i][o], nil, arm(-1, false, o))
		}
		// The full-feature accuracy comes from the guarded order-0 arm; only
		// the truncated variant needs its own sequence.
		unit(p, "truncated/"+name, &truncated[i], nil, arm(0.7, true, 0))
	}
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}

	var out []AblationResult
	for i, name := range benches {
		res := AblationResult{Program: name}
		var earlyGuarded, earlyUnguarded []float64
		for o := 0; o < orders; o++ {
			earlyGuarded = append(earlyGuarded, guarded[i][o].Early...)
			earlyUnguarded = append(earlyUnguarded, unguarded[i][o].Early...)
		}
		res.EarlyGuarded = stats.Summary(earlyGuarded)
		res.EarlyUnguarded = stats.Summary(earlyUnguarded)
		res.AccFull = guarded[i][0].Acc
		res.AccTruncated = truncated[i].Acc
		out = append(out, res)

		fmt.Fprintf(w, "\nAblation — %s\n", name)
		fmt.Fprintf(w, "  early runs (first quarter), guarded:   min=%.3f med=%.3f\n",
			res.EarlyGuarded.Min, res.EarlyGuarded.Median)
		fmt.Fprintf(w, "  early runs (first quarter), unguarded: min=%.3f med=%.3f\n",
			res.EarlyUnguarded.Min, res.EarlyUnguarded.Median)
		fmt.Fprintf(w, "  mean accuracy, full features: %.3f; single feature: %.3f\n",
			res.AccFull, res.AccTruncated)
	}
	return out, nil
}

func lastConfAcc(ev *core.Evolver) float64 {
	hist := ev.History()
	if len(hist) == 0 {
		return 0
	}
	var accs []float64
	for _, rec := range hist[len(hist)/2:] {
		accs = append(accs, rec.Accuracy)
	}
	return stats.Mean(accs)
}
