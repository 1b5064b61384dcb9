package session_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"evolvevm/internal/core"
	"evolvevm/internal/gc"
	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
	"evolvevm/internal/session"
	"evolvevm/internal/stats"
	"evolvevm/internal/xicl"
)

// captureRunner returns a runner over the server benchmark with a GC
// selector attached, so a capture covers all three learners.
func captureRunner(t testing.TB) *harness.Runner {
	t.Helper()
	r, err := harness.NewRunner(programs.ByName("server"), 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.State.GCSelector(r.EvolveCfg)
	r.GC = gc.Config{Policy: gc.MarkSweep, BudgetCells: harness.GCBudgetCells}
	return r
}

// commit runs one input into every learner of r: an Evolve run (level
// models), a Rep run (work history) and a GC observation. It returns
// the observables the learners drive, for comparing two states.
func commit(r *harness.Runner, idx int) (string, error) {
	ctx := context.Background()
	in := r.Inputs[idx]
	ev, err := r.RunOne(ctx, harness.ScenarioEvolve, in)
	if err != nil {
		return "", err
	}
	rp, err := r.RunOne(ctx, harness.ScenarioRep, in)
	if err != nil {
		return "", err
	}
	vec, _, err := r.Features(in)
	if err != nil {
		return "", err
	}
	sel := r.State.GCSelector(r.EvolveCfg)
	choice, predicted := sel.Choose(vec)
	dflt, err := r.RunOne(ctx, harness.ScenarioDefault, in)
	if err != nil {
		return "", err
	}
	ideal := sel.Observe(vec, dflt.GCStats)
	return fmt.Sprintf("%s evolve=%d/%+v rep=%d gc=%v/%v/%v", in.ID,
		ev.Cycles, *ev.Evolve, rp.Cycles, choice, predicted, ideal), nil
}

func train(t testing.TB, r *harness.Runner, order []int) []string {
	t.Helper()
	var out []string
	for _, idx := range order {
		obs, err := commit(r, idx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, obs)
	}
	return out
}

func snapshot(t testing.TB, st *session.BenchState) []byte {
	t.Helper()
	blob, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// encoded returns the checkpoint encoding of a capture: the snapshot of
// a fresh state seeded from it.
func encoded(t testing.TB, c *session.Capture) []byte {
	t.Helper()
	st := captureRunner(t).State
	if err := st.Seed(c); err != nil {
		t.Fatal(err)
	}
	return snapshot(t, st)
}

func trainingOrder(r *harness.Runner) []int {
	return r.Order(stats.Stream(4, "capture-test", "order"), 16)
}

// TestCaptureSeedEqualsSnapshotRestore: seeding from a capture gives
// exactly the state a checkpoint round trip gives — the same encoding,
// and the same behaviour on every later run.
func TestCaptureSeedEqualsSnapshotRestore(t *testing.T) {
	src := captureRunner(t)
	order := trainingOrder(src)
	train(t, src, order[:5])

	c, err := src.State.Capture()
	if err != nil {
		t.Fatal(err)
	}
	viaCapture := captureRunner(t)
	if err := viaCapture.State.Seed(c); err != nil {
		t.Fatal(err)
	}
	blob := snapshot(t, src.State)
	viaJSON := captureRunner(t)
	if err := viaJSON.State.Restore(blob); err != nil {
		t.Fatal(err)
	}
	a, b := snapshot(t, viaCapture.State), snapshot(t, viaJSON.State)
	if !bytes.Equal(a, b) {
		t.Fatalf("Seed(Capture()) and Restore(Snapshot()) differ:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Equal(a, blob) {
		t.Fatalf("seeded state does not re-encode to the source snapshot")
	}
	if !strings.Contains(string(blob), `"gcselector"`) {
		t.Fatal("source state has no GC selector; the test would not cover it")
	}

	ra, rb := train(t, viaCapture, order[5:]), train(t, viaJSON, order[5:])
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("seeded and restored states diverged:\n%v\nvs\n%v", ra, rb)
	}
	if a, b := snapshot(t, viaCapture.State), snapshot(t, viaJSON.State); !bytes.Equal(a, b) {
		t.Fatal("seeded and restored states end in different states")
	}
}

// TestCaptureIsolation: once taken, a capture never changes, and a state
// seeded from it shares nothing writable with the source. Later runs on
// the source and on seeded states reach neither the capture nor each
// other. Five commits leave spare capacity in every history (append
// grows 4 to 8), and two more stay inside it: that spare room is what a
// missing capacity clip would let two learners write into.
func TestCaptureIsolation(t *testing.T) {
	src := captureRunner(t)
	order := trainingOrder(src)
	train(t, src, order[:5])

	c, err := src.State.Capture()
	if err != nil {
		t.Fatal(err)
	}
	atCapture := encoded(t, c)
	// srcRef replays the source's future on private (decoded) memory.
	srcRef := captureRunner(t)
	if err := srcRef.State.Restore(snapshot(t, src.State)); err != nil {
		t.Fatal(err)
	}

	seeded := captureRunner(t)
	if err := seeded.State.Seed(c); err != nil {
		t.Fatal(err)
	}
	train(t, seeded, order[5:7])
	train(t, src, order[7:9])
	seededNow := snapshot(t, seeded.State)

	if got := encoded(t, c); !bytes.Equal(got, atCapture) {
		t.Fatal("capture changed after the source and a seeded state trained on")
	}

	// A second seeded state, trained like the first but after the source
	// moved on, must end exactly where the first one did.
	again := captureRunner(t)
	if err := again.State.Seed(c); err != nil {
		t.Fatal(err)
	}
	train(t, again, order[5:7])
	if !bytes.Equal(seededNow, snapshot(t, again.State)) {
		t.Fatal("the source's later runs leaked into a seeded state")
	}
	train(t, srcRef, order[7:9])
	if !bytes.Equal(snapshot(t, src.State), snapshot(t, srcRef.State)) {
		t.Fatal("a seeded state's runs leaked into the source")
	}
}

// TestCaptureUnderConcurrentCommits races Capture, Seed and training of
// the seeded state against BeginRun/EndRun-bracketed commits on the
// source. Under -race this proves that the shared histories are only
// ever read: the source appends beyond every captured prefix, and seeded
// states append into memory of their own.
func TestCaptureUnderConcurrentCommits(t *testing.T) {
	src := captureRunner(t)
	order := trainingOrder(src)
	train(t, src, order[:5])

	// Each source commit waits for a fresh capture, so every capture has
	// a commit appending right after it, concurrently with the seeded
	// state's own run. The hand-off orders the commit after the capture
	// only, never after the seeded run: -race still sees any memory the
	// two write in common.
	captured := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		for _, idx := range order[5:] {
			<-captured
			src.State.BeginRun()
			_, err := commit(src, idx)
			src.State.EndRun()
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; ; i++ {
		c, err := src.State.Capture()
		if err != nil {
			t.Fatal(err)
		}
		select {
		case captured <- struct{}{}:
		default:
		}
		seeded := src.Fork() // the capture brings the GC selector along
		if err := seeded.State.Seed(c); err != nil {
			t.Fatal(err)
		}
		train(t, seeded, order[i%len(order):][:1])
		snapshot(t, seeded.State)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}

// syntheticState builds a state with n runs of history in every learner
// without executing anything: n examples for each of two functions, n
// recorded work profiles and n GC observations.
func syntheticState(t testing.TB, n int) *session.BenchState {
	t.Helper()
	prog, err := programs.ByName("server").Program()
	if err != nil {
		t.Fatal(err)
	}
	st := session.NewBenchState(prog, core.DefaultConfig())
	type feature struct {
		Name string  `json:"name"`
		Kind string  `json:"kind"`
		Num  float64 `json:"num"`
	}
	type example struct {
		Label    int       `json:"label"`
		Features []feature `json:"features"`
	}
	type model struct {
		Fn       string    `json:"fn"`
		Examples []example `json:"examples"`
	}
	saved := struct {
		Program    string  `json:"program"`
		Confidence float64 `json:"confidence"`
		Runs       int     `json:"runs"`
		Models     []model `json:"models"`
	}{Program: prog.Name, Confidence: 0.9, Runs: n}
	for fn := 0; fn < 2; fn++ {
		m := model{Fn: prog.Funcs[fn].Name}
		for i := 0; i < n; i++ {
			m.Examples = append(m.Examples, example{Label: i % 3,
				Features: []feature{{Name: "-n.VAL", Kind: "num", Num: float64(i)}}})
		}
		saved.Models = append(saved.Models, m)
	}
	raw, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.LoadEvolver(prog, core.DefaultConfig(), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	st.SetEvolver(ev)
	work := make([]int64, len(prog.Funcs))
	sel := st.GCSelector(core.DefaultConfig())
	c := gc.Collection{LiveCells: 200, TotalCells: 6000, FreedCells: 5800}
	for i := 0; i < n; i++ {
		st.Repo().RecordWork(work)
		sel.Observe(xicl.Vector{xicl.NumFeature("-k.VAL", float64(i))},
			gc.Stats{Collections: []gc.Collection{c}, Allocs: 300})
	}
	return st
}

// TestCaptureCostIndependentOfHistory: taking a capture — the whole of
// an epoch barrier's publish work per benchmark — does no per-example or
// per-run work. It allocates the same at 8 and at 2048 runs of history.
func TestCaptureCostIndependentOfHistory(t *testing.T) {
	allocs := func(n int) float64 {
		st := syntheticState(t, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := st.Capture(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(8), allocs(2048)
	if short != long {
		t.Fatalf("Capture allocates %v times at 8 runs of history but %v at 2048", short, long)
	}
}

// BenchmarkBenchStateCapture contrasts the in-memory capture with the
// checkpoint encoding it replaced on the publish path, at two history
// lengths: the capture's cost is flat, the snapshot's grows.
func BenchmarkBenchStateCapture(b *testing.B) {
	for _, n := range []int{64, 1024} {
		st := syntheticState(b, n)
		b.Run(fmt.Sprintf("capture/history=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Capture(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("snapshot/history=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCaptureKeepsCheckpointSemantics: a learned value the checkpoint
// format cannot reproduce makes Capture behave exactly like a checkpoint
// round trip. A non-finite feature fails both (so a publish keeps the
// previous tier entry); a lossy one (negative zero, invalid UTF-8) comes
// back from Seed exactly as from Restore.
func TestCaptureKeepsCheckpointSemantics(t *testing.T) {
	prog, err := programs.ByName("server").Program()
	if err != nil {
		t.Fatal(err)
	}
	stats := gc.Stats{Collections: []gc.Collection{{LiveCells: 5000, TotalCells: 6000, FreedCells: 1000}}, Allocs: 300}
	withFeature := func(f xicl.Feature) *session.BenchState {
		st := session.NewBenchState(prog, core.DefaultConfig())
		st.GCSelector(core.DefaultConfig()).Observe(xicl.Vector{f}, stats)
		return st
	}

	for _, f := range []xicl.Feature{xicl.NumFeature("-k.VAL", math.Inf(1)), xicl.NumFeature("-k.VAL", math.NaN())} {
		st := withFeature(f)
		if _, err := st.Snapshot(); err == nil {
			t.Fatalf("%v: Snapshot encoded a non-finite feature", f)
		}
		if _, err := st.Capture(); err == nil {
			t.Fatalf("%v: Capture succeeded where Snapshot fails", f)
		}
	}

	for _, f := range []xicl.Feature{
		xicl.NumFeature("-k.VAL", math.Copysign(0, -1)),
		xicl.CatFeature("-k.VAL", "\xff"),
		{Name: "-k.VAL", Kind: xicl.Numeric, Num: 2, Cat: "stray"},
	} {
		st := withFeature(f)
		c, err := st.Capture()
		if err != nil {
			t.Fatal(err)
		}
		viaCapture := session.NewBenchState(prog, core.DefaultConfig())
		if err := viaCapture.Seed(c); err != nil {
			t.Fatal(err)
		}
		viaJSON := session.NewBenchState(prog, core.DefaultConfig())
		if err := viaJSON.Restore(snapshot(t, st)); err != nil {
			t.Fatal(err)
		}
		// %+v tells -0 from 0, which reflect.DeepEqual does not.
		ea := fmt.Sprintf("%+v", viaCapture.GCSelector(core.Config{}).Capture())
		eb := fmt.Sprintf("%+v", viaJSON.GCSelector(core.Config{}).Capture())
		if ea != eb {
			t.Fatalf("%#v: Seed(Capture()) holds %s, Restore(Snapshot()) holds %s", f, ea, eb)
		}
	}
}
