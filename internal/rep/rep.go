// Package rep implements the cross-run profile-repository optimizer of
// Arnold, Welc and Rajan (OOPSLA 2005) — the paper's "Rep" comparison
// baseline. The repository accumulates profiles over past runs and derives,
// per method, a compilation plan of ⟨sample-count, level⟩ pairs that
// maximizes the *average* performance over the history. Unlike the
// evolvable VM it is not input-specific and applies its plan
// unconditionally, from the very first history run.
package rep

import (
	"evolvevm/internal/bytecode"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// PlanEntry says: when the sampler sees the Samples-th sample of the
// method, recompile it at Level.
type PlanEntry struct {
	Samples int64
	Level   int
}

// Plan is a per-method compilation plan, ordered by ascending Samples.
type Plan map[int][]PlanEntry

// Repository is the persistent cross-run profile store for one program.
type Repository struct {
	prog *bytecode.Program
	// workHist[r][fn] is the baseline-equivalent work fn performed in
	// recorded run r. It is append-only: RecordWork appends a private
	// copy of each run, and nothing rewrites or removes a recorded row,
	// so Capture can share a capacity-clipped prefix without copying.
	workHist [][]int64

	// Plan memoization: BuildPlan is a pure function of the history, the
	// compiler's tier table, and the sample stride, but Controller used to
	// rebuild it on every run — an O(funcs × triggers × levels × history)
	// rescan per run. The cache is invalidated by construction when any
	// input changes (a Record grows the history; a different compiler
	// config or stride misses the key).
	cached       Plan
	cachedRuns   int
	cachedCfg    jit.Config
	cachedStride int64
}

// NewRepository returns an empty repository bound to prog.
func NewRepository(prog *bytecode.Program) *Repository {
	return &Repository{prog: prog}
}

// Runs returns how many runs the repository has recorded.
func (r *Repository) Runs() int { return len(r.workHist) }

// Record adds a finished run's profile to the repository.
func (r *Repository) Record(m *vm.Machine) {
	r.RecordWork(m.Engine.Work)
}

// RecordWork adds one run's per-function baseline-work profile directly.
// Work profiles are level- and controller-independent (the execution path
// is a pure function of program and input), so a profile measured under
// any scenario — or replayed from a deterministic-outcome cache — records
// identically to one observed live. The slice is copied.
func (r *Repository) RecordWork(work []int64) {
	r.workHist = append(r.workHist, append([]int64(nil), work...))
}

// triggerGrid is the candidate sample-count triggers a plan may use.
var triggerGrid = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

// BuildPlan derives the compilation plan from the recorded history. For
// each method it selects the ⟨trigger, level⟩ pair minimizing the
// *expected total time over the history distribution* — Arnold et al.'s
// criterion of maximizing average performance of the past runs. Short
// runs never reach a high trigger, so a well-chosen trigger lets them
// self-select out of an expensive compile; that single compromise plan is
// exactly what the evolvable VM's input-specific prediction improves on.
func (r *Repository) BuildPlan(compiler *jit.Compiler, sampleStride int64) Plan {
	plan := make(Plan)
	if len(r.workHist) == 0 {
		return plan
	}
	nf := len(r.prog.Funcs)
	for fn := 0; fn < nf; fn++ {
		// Expected time with no plan: the baseline work itself.
		var baseTotal int64
		works := make([]int64, 0, len(r.workHist))
		for _, run := range r.workHist {
			works = append(works, run[fn])
			baseTotal += run[fn]
		}
		if baseTotal == 0 {
			continue
		}
		bestTotal := baseTotal
		var bestK int64
		bestL := jit.MinLevel
		for _, k := range triggerGrid {
			kc := k * sampleStride
			for l := 0; l <= jit.MaxLevel; l++ {
				compile := compiler.EstimateCompileCycles(fn, l)
				speed := compiler.Speedup(l)
				var total int64
				for _, w := range works {
					if w <= kc {
						total += w // trigger never fires
						continue
					}
					total += kc + compile + int64(float64(w-kc)/speed)
				}
				if total < bestTotal {
					bestTotal, bestK, bestL = total, k, l
				}
			}
		}
		if bestL > jit.MinLevel {
			plan[fn] = []PlanEntry{{Samples: bestK, Level: bestL}}
		}
	}
	return plan
}

// Controller returns the vm.Controller executing the repository's current
// plan for one run and recording the run back into the repository when it
// finishes. planCost cycles are charged at run start for loading the plan.
// The plan is memoized across runs until the history, tier table, or
// stride changes, so steady-state Rep runs skip the BuildPlan rescan.
func (r *Repository) Controller(compiler *jit.Compiler, sampleStride int64) *Controller {
	cfg := compiler.Config()
	if r.cached == nil || r.cachedRuns != len(r.workHist) ||
		r.cachedCfg != cfg || r.cachedStride != sampleStride {
		r.cached = r.BuildPlan(compiler, sampleStride)
		r.cachedRuns, r.cachedCfg, r.cachedStride = len(r.workHist), cfg, sampleStride
	}
	return &Controller{repo: r, plan: r.cached}
}

// Controller executes a repository plan.
type Controller struct {
	repo *Repository
	plan Plan
}

var _ vm.Controller = (*Controller)(nil)

// Name implements vm.Controller.
func (c *Controller) Name() string { return "rep" }

// OnRunStart charges a small plan-lookup overhead.
func (c *Controller) OnRunStart(m *vm.Machine) {
	m.AddOverhead(40 * int64(len(c.plan)))
}

// OnInvoke implements vm.Controller (plans are sample-driven).
func (c *Controller) OnInvoke(*vm.Machine, int, int64) {}

// OnSample fires plan entries whose sample trigger has been reached.
func (c *Controller) OnSample(m *vm.Machine, fnIdx int) {
	entries := c.plan[fnIdx]
	for _, e := range entries {
		if m.Samples[fnIdx] >= e.Samples && m.Level(fnIdx) < e.Level {
			_ = m.RequestCompile(fnIdx, e.Level)
		}
	}
}

// OnRunEnd records the finished run into the repository.
func (c *Controller) OnRunEnd(m *vm.Machine) {
	c.repo.Record(m)
}
