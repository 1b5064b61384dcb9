package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/cart"
	"evolvevm/internal/xicl"
)

// The on-disk model store. A production evolvable VM keeps its learned
// state between process lifetimes; Save/Load serialize the example sets
// and confidence (trees are rebuilt on load — they are derived state).
//
// The same state also moves between live learners without touching
// disk: Capture takes it in O(methods) by sharing the append-only example
// histories (cart.Frozen), and a capture builds a learner exactly as a
// Save/Load round trip would. Save is "encode Capture()" and Load is
// "decode into a capture, then build", so both paths stay one.

type persistFeature struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	Num  float64 `json:"num,omitempty"`
	Cat  string  `json:"cat,omitempty"`
}

type persistExample struct {
	Label    int              `json:"label"`
	Features []persistFeature `json:"features"`
}

type persistModel struct {
	Fn       string           `json:"fn"`
	Examples []persistExample `json:"examples"`
}

type persistState struct {
	Program    string         `json:"program"`
	Confidence float64        `json:"confidence"`
	Runs       int            `json:"runs"`
	Models     []persistModel `json:"models"`
}

func persistExamples(h cart.Frozen) []persistExample {
	var out []persistExample
	for _, ex := range h.Examples() {
		pe := persistExample{Label: ex.Label}
		for _, f := range ex.Features {
			pe.Features = append(pe.Features,
				persistFeature{Name: f.Name, Kind: f.Kind.String(), Num: f.Num, Cat: f.Cat})
		}
		out = append(out, pe)
	}
	return out
}

func loadExamples(pes []persistExample) cart.Frozen {
	exs := make([]cart.Example, 0, len(pes))
	for _, pe := range pes {
		ex := cart.Example{Label: pe.Label}
		for _, pf := range pe.Features {
			if pf.Kind == xicl.Categorical.String() {
				ex.Features = append(ex.Features, xicl.CatFeature(pf.Name, pf.Cat))
			} else {
				ex.Features = append(ex.Features, xicl.NumFeature(pf.Name, pf.Num))
			}
		}
		exs = append(exs, ex)
	}
	return cart.FreezeExamples(exs)
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

func saveIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

// EvolverState is an immutable capture of an Evolver's persistent state:
// what Save writes, with the example histories shared instead of copied.
// Its JSON form (MarshalJSON/UnmarshalJSON) is the Save format.
type EvolverState struct {
	program string
	conf    float64
	runs    int
	models  []modelState // by function index; methods with examples only
}

type modelState struct {
	fn       string
	examples cart.Frozen
}

// Capture returns the learner's persistent state in O(methods). Later
// runs of ev never change the capture.
func (ev *Evolver) Capture() EvolverState {
	st := EvolverState{program: ev.prog.Name, conf: ev.conf, runs: ev.runs}
	for fn, m := range ev.models {
		if m == nil || m.Len() == 0 {
			continue
		}
		st.models = append(st.models, modelState{fn: ev.prog.Funcs[fn].Name, examples: m.Freeze()})
	}
	return st
}

// Exact reports whether a Save/Load round trip reproduces st unchanged.
// A state that is not exact (a non-finite confidence or a non-canonical
// feature) either fails to save or loads back changed. Program and
// function names are assembler identifiers and always survive.
func (st EvolverState) Exact() bool {
	if !finite(st.conf) {
		return false
	}
	for _, m := range st.models {
		if !m.examples.Canonical() {
			return false
		}
	}
	return true
}

func (st EvolverState) persist() persistState {
	ps := persistState{Program: st.program, Confidence: st.conf, Runs: st.runs}
	for _, m := range st.models {
		ps.Models = append(ps.Models, persistModel{Fn: m.fn, Examples: persistExamples(m.examples)})
	}
	return ps
}

// MarshalJSON encodes st in the Save format.
func (st EvolverState) MarshalJSON() ([]byte, error) { return json.Marshal(st.persist()) }

// UnmarshalJSON decodes the Save format.
func (st *EvolverState) UnmarshalJSON(data []byte) error {
	var ps persistState
	if err := json.Unmarshal(data, &ps); err != nil {
		return err
	}
	*st = EvolverState{program: ps.Program, conf: ps.Confidence, runs: ps.Runs}
	for _, pm := range ps.Models {
		st.models = append(st.models, modelState{fn: pm.Fn, examples: loadExamples(pm.Examples)})
	}
	return nil
}

// Evolver returns a new learner for prog in state st, exactly as
// LoadEvolver leaves a loaded one: trees not built yet and no per-run
// history. The program must declare every function named in the state
// (extra functions are fine — they simply have no model yet). The
// learner shares st's example histories; its own later runs never reach
// st, nor the learner st was captured from.
func (st EvolverState) Evolver(prog *bytecode.Program, cfg Config) (*Evolver, error) {
	if st.program != prog.Name {
		return nil, fmt.Errorf("core: state is for program %q, not %q", st.program, prog.Name)
	}
	ev := NewEvolver(prog, cfg)
	ev.conf = st.conf
	ev.runs = st.runs
	for _, m := range st.models {
		fn, ok := prog.FuncIndex(m.fn)
		if !ok {
			return nil, fmt.Errorf("core: state references unknown function %q", m.fn)
		}
		ev.models[fn] = m.examples.Learner(cfg.Tree)
	}
	return ev, nil
}

// Save writes the learner's persistent state as JSON.
func (ev *Evolver) Save(w io.Writer) error {
	return saveIndented(w, ev.Capture().persist())
}

// LoadEvolver restores a learner saved by Save, binding it to prog.
func LoadEvolver(prog *bytecode.Program, cfg Config, r io.Reader) (*Evolver, error) {
	var st EvolverState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return st.Evolver(prog, cfg)
}

// persistGCState is the GC selector's saved form. Like the level
// predictor, only examples and confidence persist; the tree is rebuilt.
type persistGCState struct {
	Confidence float64          `json:"confidence"`
	Runs       int              `json:"runs"`
	Examples   []persistExample `json:"examples,omitempty"`
}

// GCState is the GC selector's counterpart of EvolverState: an immutable
// capture of its persistent state whose JSON form is the Save format.
type GCState struct {
	conf     float64
	runs     int
	examples cart.Frozen
}

// Capture returns the selector's persistent state in O(1).
func (s *GCSelector) Capture() GCState {
	return GCState{conf: s.conf, runs: s.runs, examples: s.model.Freeze()}
}

// Exact reports whether a Save/Load round trip reproduces st unchanged.
func (st GCState) Exact() bool { return finite(st.conf) && st.examples.Canonical() }

func (st GCState) persist() persistGCState {
	return persistGCState{Confidence: st.conf, Runs: st.runs, Examples: persistExamples(st.examples)}
}

// MarshalJSON encodes st in the Save format.
func (st GCState) MarshalJSON() ([]byte, error) { return json.Marshal(st.persist()) }

// UnmarshalJSON decodes the Save format.
func (st *GCState) UnmarshalJSON(data []byte) error {
	var ps persistGCState
	if err := json.Unmarshal(data, &ps); err != nil {
		return err
	}
	*st = GCState{conf: ps.Confidence, runs: ps.Runs, examples: loadExamples(ps.Examples)}
	return nil
}

// Selector returns a new selector in state st, exactly as LoadGCSelector
// leaves a loaded one. It shares st's example history.
func (st GCState) Selector(cfg Config) *GCSelector {
	s := NewGCSelector(cfg)
	s.conf = st.conf
	s.runs = st.runs
	s.model = st.examples.Learner(cfg.Tree)
	return s
}

// Save writes the GC selector's persistent state as JSON.
func (s *GCSelector) Save(w io.Writer) error {
	return saveIndented(w, s.Capture().persist())
}

// LoadGCSelector restores a selector saved by GCSelector.Save.
func LoadGCSelector(cfg Config, r io.Reader) (*GCSelector, error) {
	var st GCState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load gc selector: %w", err)
	}
	return st.Selector(cfg), nil
}
