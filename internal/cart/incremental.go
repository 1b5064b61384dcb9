package cart

import (
	"fmt"

	"evolvevm/internal/xicl"
)

// Incremental accumulates training examples across production runs and
// maintains a classification tree over them. The paper separates learning
// into online lightweight data collection (Add) and offline model
// construction (the rebuild), keeping runtime overhead negligible; the
// rebuild happens lazily, outside the program's measured execution.
type Incremental struct {
	params Params
	// examples is append-only: Add appends, and nothing ever rewrites,
	// reorders or removes a stored example. Freeze relies on this to
	// share a capacity-clipped prefix with other learners without
	// copying it.
	examples []Example
	// lossy records that some stored example is not canonical
	// (xicl.Vector.Canonical), so a checkpoint would not reproduce it.
	lossy bool
	tree  *Tree
	stale bool

	// RebuildEvery controls how many Adds may accumulate before Predict
	// rebuilds (1 = always fresh). Larger values trade model freshness
	// for rebuild time — the ablation in bench_test.go measures this.
	RebuildEvery int
	sinceRebuild int
}

// NewIncremental returns an empty incremental learner.
func NewIncremental(p Params) *Incremental {
	return &Incremental{params: p, RebuildEvery: 1}
}

// Add records one observation.
func (inc *Incremental) Add(ex Example) {
	inc.examples = append(inc.examples, ex)
	if !inc.lossy && !ex.Features.Canonical() {
		inc.lossy = true
	}
	inc.sinceRebuild++
	if inc.sinceRebuild >= inc.RebuildEvery || inc.tree == nil {
		inc.stale = true
	}
}

// Len returns the number of stored examples.
func (inc *Incremental) Len() int { return len(inc.examples) }

// Examples returns the stored examples (shared slice; callers must not
// modify).
func (inc *Incremental) Examples() []Example { return inc.examples }

// Frozen is an immutable example history: a prefix of an Incremental's
// examples that later Adds, to the source or to any learner built from
// it, can never change.
type Frozen struct {
	examples []Example // capacity-clipped: an append always reallocates
	lossy    bool
}

// Freeze returns the examples stored so far in O(1). The slice is
// clipped to its length, so a learner built over it (Learner) appends
// into fresh memory rather than into the source's backing array, and the
// source's own later appends land beyond the frozen prefix.
func (inc *Incremental) Freeze() Frozen {
	n := len(inc.examples)
	return Frozen{examples: inc.examples[:n:n], lossy: inc.lossy}
}

// FreezeExamples takes ownership of examples (the caller must not modify
// them afterwards) as a frozen history.
func FreezeExamples(examples []Example) Frozen {
	f := Frozen{examples: examples[:len(examples):len(examples)]}
	for _, ex := range examples {
		if !ex.Features.Canonical() {
			f.lossy = true
			break
		}
	}
	return f
}

// Examples returns the frozen examples (shared; callers must not modify).
func (f Frozen) Examples() []Example { return f.examples }

// Canonical reports whether every frozen example is canonical, i.e.
// whether a checkpoint reproduces the history exactly.
func (f Frozen) Canonical() bool { return !f.lossy }

// Learner returns a new learner over the frozen examples, in exactly the
// state NewIncremental would reach after Adding each of them in turn: no
// tree yet (it is built on first use) and RebuildEvery 1. It shares the
// examples instead of copying them; its own Adds never reach the source.
func (f Frozen) Learner(p Params) *Incremental {
	n := len(f.examples)
	return &Incremental{
		params:       p,
		examples:     f.examples,
		lossy:        f.lossy,
		stale:        n > 0,
		RebuildEvery: 1,
		sinceRebuild: n,
	}
}

// Tree returns the current model, rebuilding if stale. Returns nil when
// no examples exist yet.
func (inc *Incremental) Tree() *Tree {
	if len(inc.examples) == 0 {
		return nil
	}
	if inc.stale || inc.tree == nil {
		t, err := Build(inc.examples, inc.params)
		if err != nil {
			// Only reachable with inconsistent shapes, which one
			// translator cannot produce; surface loudly in development.
			panic(fmt.Sprintf("cart: incremental rebuild: %v", err))
		}
		inc.tree = t
		inc.stale = false
		inc.sinceRebuild = 0
	}
	return inc.tree
}

// Predict classifies v with the current model; ok is false when the model
// is empty.
func (inc *Incremental) Predict(v xicl.Vector) (int, bool) {
	t := inc.Tree()
	if t == nil {
		return 0, false
	}
	return t.Predict(v), true
}
