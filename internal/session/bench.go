package session

import (
	"encoding/json"
	"fmt"
	"maps"
	"sync"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/core"
	"evolvevm/internal/rep"
	"evolvevm/internal/xicl"
)

// BenchState bundles one benchmark's cross-run state: the Evolve
// learner, the Rep repository, the optional GC selector, and the
// memoized Default-scenario baselines. It implements CrossRunState so a
// whole benchmark's learned state checkpoints and resumes as one blob.
//
// Locking: the defaults map is written concurrently by parallel baseline
// measurements; the learners are only touched from their (serial) run
// sequences, but Capture/Seed (and Snapshot/Restore, built on them) may
// race with baseline warming, so one mutex covers everything.
//
// The learners themselves (Evolver, Repository, GCSelector) have no
// internal locks: a run's controller mutates them directly when the run
// commits (Controller.OnRunEnd). runMu is the commit lock that keeps
// Capture consistent with that: the executing layer brackets every
// state-mutating run with BeginRun/EndRun, and Capture/Seed acquire
// runMu first, so a capture observes the state strictly between run
// commits — never a half-applied one. A capture shares the learners'
// append-only histories rather than copying them; it stays valid after
// runMu is released because a commit only appends beyond the captured
// length, and a seeded state appends into memory of its own. Only
// checkpoints (Snapshot, Session.Save) encode JSON. Lock order: runMu,
// then mu; and never a session lock while holding either (see
// Session.Save).
type BenchState struct {
	runMu sync.Mutex
	mu    sync.Mutex
	prog  *bytecode.Program

	evolveCfg core.Config
	gcCfg     core.Config

	evolver  *core.Evolver
	repo     *rep.Repository
	gcsel    *core.GCSelector
	defaults map[string]int64
	fvcache  *xicl.FVCache
}

var _ CrossRunState = (*BenchState)(nil)

// NewBenchState returns fresh cross-run state for prog.
func NewBenchState(prog *bytecode.Program, evolveCfg core.Config) *BenchState {
	b := &BenchState{prog: prog, evolveCfg: evolveCfg}
	b.reset()
	return b
}

func (b *BenchState) reset() {
	b.evolver = core.NewEvolver(b.prog, b.evolveCfg)
	b.repo = rep.NewRepository(b.prog)
	b.gcsel = nil
	if b.defaults == nil {
		b.defaults = make(map[string]int64)
	}
	if b.fvcache == nil {
		b.fvcache = xicl.NewFVCache()
	}
}

// Reset clears the learned state (Evolve models, Rep history, GC
// selector) while keeping the memoized default baselines — those are
// deterministic properties of the inputs, not learned state.
func (b *BenchState) Reset() {
	b.runMu.Lock()
	defer b.runMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reset()
}

// BeginRun acquires the state's commit lock for one state-mutating run.
// The run's controller mutates the learners without further locking; a
// concurrent Snapshot waits at the commit boundary instead of observing a
// torn state. Callers must pair it with EndRun. Completing session
// units inside the bracket is fine (CompleteUnit takes only the session
// mutex); saving the owning session is not — Save acquires this same
// commit lock and would deadlock.
func (b *BenchState) BeginRun() { b.runMu.Lock() }

// EndRun releases the commit lock taken by BeginRun.
func (b *BenchState) EndRun() { b.runMu.Unlock() }

// Evolver returns the benchmark's Evolve learner.
func (b *BenchState) Evolver() *core.Evolver {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evolver
}

// SetEvolver replaces the learner (e.g. one loaded from a legacy
// single-learner state file).
func (b *BenchState) SetEvolver(ev *core.Evolver) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.evolver = ev
}

// Repo returns the benchmark's Rep repository.
func (b *BenchState) Repo() *rep.Repository {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.repo
}

// GCSelector returns the benchmark's GC selector, creating it with cfg
// on first use (later calls ignore cfg).
func (b *BenchState) GCSelector(cfg core.Config) *core.GCSelector {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gcsel == nil {
		b.gcCfg = cfg
		b.gcsel = core.NewGCSelector(cfg)
	}
	return b.gcsel
}

// FVCache returns the benchmark's feature-vector memo. Like the default
// baselines it survives Reset and is excluded from Snapshot/Restore:
// feature extraction is a deterministic property of the inputs, not
// learned state, so the cache is always safe to rebuild and never worth
// serializing.
func (b *BenchState) FVCache() *xicl.FVCache {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fvcache
}

// DefaultCycles returns the memoized Default-scenario cycles of an input.
func (b *BenchState) DefaultCycles(inputID string) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.defaults[inputID]
	return c, ok
}

// SetDefaultCycles memoizes an input's Default-scenario cycles.
func (b *BenchState) SetDefaultCycles(inputID string, cycles int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.defaults[inputID] = cycles
}

// benchBlob is BenchState's serialized form. The learners' own Save
// formats are embedded verbatim, so the per-component golden tests cover
// the session checkpoint too.
type benchBlob struct {
	Program    string           `json:"program"`
	Evolver    json.RawMessage  `json:"evolver,omitempty"`
	Repository json.RawMessage  `json:"repository,omitempty"`
	GCConfig   *core.Config     `json:"gcconfig,omitempty"`
	GCSelector json.RawMessage  `json:"gcselector,omitempty"`
	Defaults   map[string]int64 `json:"defaults,omitempty"`
}

// Capture is an immutable in-memory copy of a BenchState's learned
// state: exactly what Snapshot followed by Restore carries over, but
// sharing the learners' append-only histories instead of encoding them,
// so taking one costs O(functions), not O(history). A capture may be
// read from any goroutine and may Seed any number of states; neither
// its source nor a seeded state can change it later.
type Capture struct {
	program  string
	evolver  *core.EvolverState // nil: a fresh learner
	repo     *rep.State         // nil: an empty repository
	gcsel    *core.GCState      // nil: no selector
	gcCfg    *core.Config       // nil: the state's Evolve config
	defaults map[string]int64
}

// Capture returns the learned state as an immutable in-memory copy.
// Like Snapshot it acquires the commit lock, so it observes the state at
// a run boundary, and it fails exactly where Snapshot would (a
// non-finite learned value cannot be encoded).
func (b *BenchState) Capture() (*Capture, error) {
	b.runMu.Lock()
	defer b.runMu.Unlock()
	c := b.captureLocked()
	if c.exact() {
		return c, nil
	}
	// Some learned value would not survive the checkpoint format as is.
	// Take the capture through it, so it still equals what Snapshot then
	// Restore gives and fails where Snapshot fails. This costs
	// O(history), but only for states holding such values.
	raw, err := c.encode()
	if err != nil {
		return nil, err
	}
	return decodeCapture(raw)
}

func (b *BenchState) captureLocked() *Capture {
	b.mu.Lock()
	defer b.mu.Unlock()
	ev, repo := b.evolver.Capture(), b.repo.Capture()
	c := &Capture{program: b.prog.Name, evolver: &ev, repo: &repo, defaults: maps.Clone(b.defaults)}
	if b.gcsel != nil {
		sel, cfg := b.gcsel.Capture(), b.gcCfg
		c.gcsel, c.gcCfg = &sel, &cfg
	}
	return c
}

// exact reports whether encoding c and decoding it back reproduces c.
// Only learned values can fail to: repository histories and default
// baselines are integers (keyed by generated input IDs), and the GC
// config is set by code.
func (c *Capture) exact() bool {
	return (c.evolver == nil || c.evolver.Exact()) && (c.gcsel == nil || c.gcsel.Exact())
}

func (c *Capture) encode() (json.RawMessage, error) {
	blob := benchBlob{Program: c.program, GCConfig: c.gcCfg, Defaults: c.defaults}
	var err error
	if c.evolver != nil {
		if blob.Evolver, err = json.Marshal(c.evolver); err != nil {
			return nil, err
		}
	}
	if c.repo != nil {
		if blob.Repository, err = json.Marshal(c.repo); err != nil {
			return nil, err
		}
	}
	if c.gcsel != nil {
		if blob.GCSelector, err = json.Marshal(c.gcsel); err != nil {
			return nil, err
		}
	}
	return json.Marshal(blob)
}

func decodeCapture(raw json.RawMessage) (*Capture, error) {
	var blob benchBlob
	if err := json.Unmarshal(raw, &blob); err != nil {
		return nil, fmt.Errorf("session: bench state: %w", err)
	}
	c := &Capture{program: blob.Program, defaults: blob.Defaults}
	if len(blob.Evolver) > 0 {
		c.evolver = new(core.EvolverState)
		if err := json.Unmarshal(blob.Evolver, c.evolver); err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
	}
	if len(blob.Repository) > 0 {
		c.repo = new(rep.State)
		if err := json.Unmarshal(blob.Repository, c.repo); err != nil {
			return nil, fmt.Errorf("rep: load: %w", err)
		}
	}
	if len(blob.GCSelector) > 0 {
		c.gcsel = new(core.GCState)
		if err := json.Unmarshal(blob.GCSelector, c.gcsel); err != nil {
			return nil, fmt.Errorf("core: load gc selector: %w", err)
		}
		c.gcCfg = blob.GCConfig
	}
	return c, nil
}

// Snapshot implements CrossRunState: it encodes a capture. It acquires
// the commit lock, so a snapshot taken while runs are in flight captures
// the state at a run boundary, never mid-commit.
func (b *BenchState) Snapshot() (json.RawMessage, error) {
	b.runMu.Lock()
	defer b.runMu.Unlock()
	return b.snapshotLocked()
}

// snapshotLocked is Snapshot with the commit lock already held — the path
// Session.Save uses after pre-acquiring every component's commit lock.
func (b *BenchState) snapshotLocked() (json.RawMessage, error) {
	return b.captureLocked().encode()
}

// Restore implements CrossRunState: it decodes the blob into a capture
// and seeds from it. Like Snapshot it waits for any in-flight run to
// commit before replacing the state.
func (b *BenchState) Restore(raw json.RawMessage) error {
	c, err := decodeCapture(raw)
	if err != nil {
		return err
	}
	return b.Seed(c)
}

// Seed replaces the learned state (Evolve learner, Rep repository, GC
// selector) with c's and merges c's default baselines into the memoized
// ones. The new learners are exactly what Restore of c's encoding would
// build — trees not built yet, no per-run history — but they share c's
// histories: each gets its own learner over the clipped slices, so its
// later runs reach neither c nor any other state seeded from it. Like
// Restore it waits for any in-flight run to commit. On error the state
// is unchanged.
func (b *BenchState) Seed(c *Capture) error {
	b.runMu.Lock()
	defer b.runMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if c.program != b.prog.Name {
		return fmt.Errorf("session: bench state is for program %q, not %q", c.program, b.prog.Name)
	}
	ev := core.NewEvolver(b.prog, b.evolveCfg)
	if c.evolver != nil {
		var err error
		if ev, err = c.evolver.Evolver(b.prog, b.evolveCfg); err != nil {
			return err
		}
	}
	repo := rep.NewRepository(b.prog)
	if c.repo != nil {
		var err error
		if repo, err = c.repo.Repository(b.prog); err != nil {
			return err
		}
	}
	b.evolver, b.repo, b.gcsel = ev, repo, nil
	if c.gcsel != nil {
		cfg := b.evolveCfg
		if c.gcCfg != nil {
			cfg = *c.gcCfg
		}
		b.gcCfg = cfg
		b.gcsel = c.gcsel.Selector(cfg)
	}
	for id, cycles := range c.defaults {
		b.defaults[id] = cycles
	}
	return nil
}
