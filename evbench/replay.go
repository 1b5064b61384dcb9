package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"evolvevm/internal/core"
	"evolvevm/internal/exec"
	"evolvevm/internal/harness"
	"evolvevm/internal/jit"
	"evolvevm/internal/programs"
	"evolvevm/internal/session"
	"evolvevm/internal/traffic"
	"evolvevm/internal/vm"
)

// The layer replay re-runs learning sequences through the program's
// public calls — Runner.Features, the Evolver and Repository controllers,
// exec.RunInto, Runner.DefaultCycles — with a span around each call, so
// the traced run can split a run's time into feature extraction,
// prediction, execution, learning and baseline measurement.

// replayRequests is how many leading requests of a serve trace the
// traced run replays, one learning sequence per chain.
const replayRequests = 512

// seqJob is one learning sequence: corpus indices run in order under one
// scenario on one runner's cross-run state.
type seqJob struct {
	r        *harness.Runner
	scenario harness.Scenario
	order    []int
	speedups []float64
}

// replayTotals are the replay's exact counts.
type replayTotals struct {
	mu            sync.Mutex
	hooks         int64
	recompiles    int64
	compileCycles int64
}

// timedController wraps a run's controller: OnRunStart is the
// prediction, OnRunEnd the learner update, and every hook call counts.
type timedController struct {
	vm.Controller
	t           *tracer
	parent, req int64
	hooks       int64
}

func (c *timedController) OnRunStart(m *vm.Machine) {
	c.hooks++
	sp := c.t.open("core.predict", c.parent, c.req)
	c.Controller.OnRunStart(m)
	c.t.close(sp)
}

func (c *timedController) OnInvoke(m *vm.Machine, fnIdx int, count int64) {
	c.hooks++
	c.Controller.OnInvoke(m, fnIdx, count)
}

func (c *timedController) OnSample(m *vm.Machine, fnIdx int) {
	c.hooks++
	c.Controller.OnSample(m, fnIdx)
}

func (c *timedController) OnRunEnd(m *vm.Machine) {
	c.hooks++
	sp := c.t.open("core.learn", c.parent, c.req)
	c.Controller.OnRunEnd(m)
	c.t.close(sp)
}

// replayJobs runs every job on nproc workers and adds the per-layer
// metrics of the replay to out.
func replayJobs(ctx context.Context, jobs []*seqJob, t *tracer, out map[string]float64) error {
	cache := jit.NewCache()
	var tot replayTotals
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
		req      int64
	)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) || firstErr != nil {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				base := req
				req += int64(len(j.order))
				mu.Unlock()
				if err := j.run(ctx, t, cache, &tot, base); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	self := selfTimes(t.snapshot())
	for name, metric := range map[string]string{
		"xicl.features":    "xicl.features_ms",
		"core.predict":     "core.predict_ms",
		"core.learn":       "core.learn_ms",
		"exec.run":         "exec.run_self_ms",
		"harness.baseline": "harness.baseline_ms",
	} {
		out[metric] = ms(self[name].Self)
	}
	var hits, lookups int64
	seen := make(map[*harness.Runner]bool)
	for _, j := range jobs {
		if !seen[j.r] {
			seen[j.r] = true
			st := j.r.State.FVCache().Stats()
			hits, lookups = hits+st.Hits, lookups+st.Hits+st.Misses
		}
	}
	out["xicl.fv_hit_ratio"] = ratio(float64(hits), float64(lookups))
	out["vm.hook_calls"] = float64(tot.hooks)
	out["jit.recompiles"] = float64(tot.recompiles)
	out["jit.compile_mcycles"] = float64(tot.compileCycles) / 1e6
	return nil
}

// run measures the sequence's default baselines, as RunSequence does
// before its chain, then executes the chain.
func (j *seqJob) run(ctx context.Context, t *tracer, cache *jit.Cache, tot *replayTotals, req int64) error {
	warmed := make(map[int]bool)
	for _, idx := range j.order {
		if !warmed[idx] {
			warmed[idx] = true
			sp := t.open("harness.baseline", 0, req)
			_, err := j.r.DefaultCycles(ctx, j.r.Inputs[idx])
			t.close(sp)
			if err != nil {
				return err
			}
		}
	}
	for k, idx := range j.order {
		s, err := j.runOne(ctx, j.r.Inputs[idx], t, cache, tot, req+int64(k))
		if err != nil {
			return fmt.Errorf("%s %s run %d: %w", j.r.Bench.Name, j.scenario, k, err)
		}
		j.speedups = append(j.speedups, s)
	}
	return nil
}

// runOne is Runner.RunOne spelled out in public calls, with spans. It
// returns the run's speedup over the Default scenario.
func (j *seqJob) runOne(ctx context.Context, in programs.Input, t *tracer, cache *jit.Cache, tot *replayTotals, req int64) (float64, error) {
	r := j.r
	root := t.open("harness.run", 0, req)
	defer t.close(root)

	var controller func(m *vm.Machine) vm.Controller
	switch j.scenario {
	case harness.ScenarioEvolve:
		sp := t.open("xicl.features", root.ID, req)
		vec, cost, err := r.Features(in)
		t.close(sp)
		if err != nil {
			return 0, err
		}
		ev := r.Evolver().Controller(vec, cost)
		controller = func(*vm.Machine) vm.Controller { return ev }
	case harness.ScenarioRep:
		repo := r.Repo()
		controller = func(m *vm.Machine) vm.Controller {
			return repo.Controller(m.Compiler, m.Engine.SampleStride)
		}
	default:
		return 0, fmt.Errorf("layer replay does not run scenario %s", j.scenario)
	}

	ex := t.open("exec.run", root.ID, req)
	var ctrl *timedController
	spec := &exec.RunSpec{
		Prog:       r.Prog,
		Jit:        r.JitCfg,
		GC:         r.GC,
		SharedCode: cache,
		Setup:      in.Setup,
		Controller: func(m *vm.Machine) vm.Controller {
			// Building the controller is part of the prediction: the
			// repository derives its plan here.
			sp := t.open("core.predict", ex.ID, req)
			ctrl = &timedController{Controller: controller(m), t: t, parent: ex.ID, req: req}
			t.close(sp)
			return ctrl
		},
	}
	var out exec.RunOutcome
	err := exec.RunInto(ctx, spec, &out)
	t.close(ex)
	if err != nil {
		return 0, err
	}
	tot.mu.Lock()
	tot.hooks += ctrl.hooks
	tot.recompiles += int64(out.Recompilations)
	tot.compileCycles += out.CompileCycles
	tot.mu.Unlock()

	sp := t.open("harness.baseline", root.ID, req)
	def, err := r.DefaultCycles(ctx, in)
	t.close(sp)
	if err != nil || out.Cycles <= 0 {
		return 0, nil
	}
	return float64(def) / float64(out.Cycles), nil
}

// replayServe replays the leading requests of a serve trace, one Evolve
// sequence per chain, each on a fresh fork of its benchmark's runner.
// The chains learn in isolation (there is no shared tier here), so the
// per-call costs follow the workload's mix while the learning trajectory
// is that of an isolated server.
func replayServe(corpus int, reqs []traffic.Request, t *tracer, out map[string]float64) error {
	protos := make(map[string]*harness.Runner)
	for _, name := range serveBenches {
		r, err := harness.NewRunner(programs.ByName(name), corpus, corpusSeed)
		if err != nil {
			return err
		}
		protos[name] = r
	}
	chains := make(map[string]*seqJob)
	var jobs []*seqJob
	for _, req := range reqs {
		j := chains[req.Chain()]
		if j == nil {
			j = &seqJob{r: protos[req.Bench].Fork(), scenario: harness.ScenarioEvolve}
			chains[req.Chain()] = j
			jobs = append(jobs, j)
		}
		n := len(j.r.Inputs)
		j.order = append(j.order, ((req.Input%n)+n)%n)
	}
	return replayJobs(context.Background(), jobs, t, out)
}

// countWriter counts the bytes written through it and discards them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// sessionLayers times one checkpoint of every chain's learned state into
// a discard writer, and its restore — session.Load plus Attach into a
// fresh BenchState per chain — and reports both per chain. chains maps a
// checkpoint component name to its benchmark.
func sessionLayers(save func(w io.Writer) error, chains map[string]string, t *tracer, out map[string]float64) error {
	if len(chains) == 0 {
		return fmt.Errorf("no chains to checkpoint")
	}
	var cw countWriter
	sp := t.open("session.snapshot", 0, 0)
	start := time.Now()
	err := save(&cw)
	snap := time.Since(start)
	t.close(sp)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	sp = t.open("session.restore", 0, 0)
	start = time.Now()
	sess, err := session.Load(&buf)
	if err != nil {
		return err
	}
	for key, bench := range chains {
		prog, err := programs.ByName(bench).Program()
		if err != nil {
			return err
		}
		if err := sess.Attach(key, session.NewBenchState(prog, core.DefaultConfig())); err != nil {
			return err
		}
	}
	restore := time.Since(start)
	t.close(sp)
	n := float64(len(chains))
	out["session.snapshot_ms"] = ms(snap) / n
	out["session.snapshot_kb"] = float64(cw.n) / 1024 / n
	out["session.restore_ms"] = ms(restore) / n
	return nil
}

// requestChains maps the chain key of every request to its benchmark.
func requestChains(reqs []traffic.Request) map[string]string {
	out := make(map[string]string)
	for _, req := range reqs {
		out[req.Chain()] = req.Bench
	}
	return out
}
