package rep

import (
	"encoding/json"
	"fmt"
	"io"

	"evolvevm/internal/bytecode"
)

// The repository's persistent state is its raw work history: plans are
// derived on demand from the history and the current compiler cost
// model, so they are never stored.

type persistState struct {
	Program string    `json:"program"`
	Work    [][]int64 `json:"work"`
}

// State is an immutable capture of a repository's recorded history. It
// shares the append-only history (see Repository.workHist) instead of
// copying it; its JSON form (MarshalJSON/UnmarshalJSON) is the Save
// format.
type State struct {
	program string
	work    [][]int64 // capacity-clipped: an append always reallocates
}

// Capture returns the recorded history in O(1). The slice is clipped to
// its length, so neither the repository's later Records nor those of a
// repository built from the capture can reach it.
func (r *Repository) Capture() State {
	n := len(r.workHist)
	return State{program: r.prog.Name, work: r.workHist[:n:n]}
}

// MarshalJSON encodes st in the Save format.
func (st State) MarshalJSON() ([]byte, error) {
	return json.Marshal(persistState{Program: st.program, Work: st.work})
}

// UnmarshalJSON decodes the Save format.
func (st *State) UnmarshalJSON(data []byte) error {
	var ps persistState
	if err := json.Unmarshal(data, &ps); err != nil {
		return err
	}
	*st = State{program: ps.Program, work: ps.Work[:len(ps.Work):len(ps.Work)]}
	return nil
}

// Repository returns a new repository for prog holding st's history,
// exactly as LoadRepository leaves a loaded one. It shares the history.
func (st State) Repository(prog *bytecode.Program) (*Repository, error) {
	if st.program != prog.Name {
		return nil, fmt.Errorf("rep: state is for program %q, not %q", st.program, prog.Name)
	}
	nf := len(prog.Funcs)
	for i, run := range st.work {
		if len(run) != nf {
			return nil, fmt.Errorf("rep: run %d records %d functions, program has %d", i, len(run), nf)
		}
	}
	repo := NewRepository(prog)
	repo.workHist = st.work
	return repo, nil
}

// Save writes the repository's recorded history as JSON.
func (r *Repository) Save(w io.Writer) error {
	st := r.Capture()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(persistState{Program: st.program, Work: st.work})
}

// LoadRepository restores a repository saved by Save, binding it to prog.
func LoadRepository(prog *bytecode.Program, rd io.Reader) (*Repository, error) {
	var st State
	if err := json.NewDecoder(rd).Decode(&st); err != nil {
		return nil, fmt.Errorf("rep: load: %w", err)
	}
	return st.Repository(prog)
}
