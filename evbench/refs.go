package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
	"evolvevm/internal/traffic"
)

// refDir holds the correctness references, relative to the checkout root
// the benchmark runs from. They were recorded once, at the commit that
// introduced the benchmark, with `evbench record`; a run whose outputs
// differ from them fails.
var refDir = filepath.Join("evbench", "ref")

func refPath(workload string, ws int64) string {
	return filepath.Join(refDir, fmt.Sprintf("%s-%d.json", workload, ws))
}

func loadRef(workload string, ws int64, v any) error {
	b, err := os.ReadFile(refPath(workload, ws))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("reference %s: %w", refPath(workload, ws), err)
	}
	return nil
}

// steadyRef is the expected digest of every epoch of the serve-steady
// trace: the FNV-1a fold, in trace order, of each request's index and
// response checksum (status, value, cycles, prediction and identity).
type steadyRef struct {
	Seed     int64    `json:"seed"`
	EpochLen int      `json:"epoch_len"`
	Epochs   []string `json:"epochs"`
}

func loadSteadyRef(ws int64) (*steadyRef, error) {
	var r steadyRef
	return &r, loadRef("serve-steady", ws, &r)
}

func loadChurnRef() (*churnRef, error) {
	var r churnRef
	return &r, loadRef("serve-churn", corpusSeed, &r)
}

// fig10Ref is Figure 10's printed section and its rows.
type fig10Ref struct {
	Seed int64              `json:"seed"`
	Text string             `json:"text"`
	Rows []harness.Fig10Row `json:"rows"`
}

func loadFig10Ref() (*fig10Ref, error) {
	var r fig10Ref
	return &r, loadRef("fig10", fig10Seed, &r)
}

// recordMain rewrites references, for every seed the benchmark uses:
// serve-steady's traffic seeds 1..trafficSeeds. The steady digests come from the
// server's own trace replay (Server.RunClients) rather than from the
// benchmark's closed loop, and the churn values from the pure
// interpreter (ScenarioNull), so each reference is produced by a
// different path than the one the benchmark checks.
func recordMain(args []string) int {
	fs := flag.NewFlagSet("evbench record", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to record (all when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, w := range workloads {
		if *name != "" && w.name != *name {
			continue
		}
		var err error
		switch w.name {
		case "serve-steady":
			for ws := int64(1); ws <= trafficSeeds && err == nil; ws++ {
				err = record(w.name, ws, func() (any, error) { return recordSteady(ws) })
			}
		case "serve-churn":
			err = record(w.name, corpusSeed, func() (any, error) { return recordChurn() })
		case "fig10":
			err = record(w.name, fig10Seed, func() (any, error) { return recordFig10() })
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "evbench record: %v\n", err)
			return 1
		}
	}
	return 0
}

// record writes the reference fn produces for one workload seed.
func record(workload string, seed int64, fn func() (any, error)) error {
	ref, err := fn()
	if err == nil {
		err = writeJSON(refPath(workload, seed), ref)
	}
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	fmt.Fprintf(os.Stderr, "recorded %s\n", refPath(workload, seed))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func recordSteady(ws int64) (*steadyRef, error) {
	s, tr, err := newSteady(ws)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.RunClients(context.Background(), tr, nproc()); err != nil {
		return nil, err
	}
	if err := s.LedgerBalanced(); err != nil {
		return nil, err
	}
	outcomes := s.Outcomes()
	if len(outcomes) != len(tr.Requests) {
		return nil, fmt.Errorf("%d outcomes for %d requests", len(outcomes), len(tr.Requests))
	}
	sums := make([]uint64, len(outcomes))
	for i, o := range outcomes {
		if o.Seq != int64(i) || o.Status != traffic.StatusOK {
			return nil, fmt.Errorf("request %d: seq %d status %s %s", i, o.Seq, o.Status, o.Trap)
		}
		sums[i] = o.Checksum
	}
	ref := &steadyRef{Seed: ws, EpochLen: steadyEpoch}
	for _, d := range epochDigests(sums, steadyEpoch) {
		ref.Epochs = append(ref.Epochs, formatDigest(d))
	}
	return ref, nil
}

func recordChurn() (*churnRef, error) {
	ref := &churnRef{Seed: corpusSeed, Benches: make(map[string][]inputValue)}
	for _, name := range serveBenches {
		r, err := harness.NewRunner(programs.ByName(name), 0, corpusSeed)
		if err != nil {
			return nil, err
		}
		for _, in := range r.Inputs {
			res, err := r.RunRequest(context.Background(), harness.ScenarioNull, in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.ID, err)
			}
			v := inputValue{ID: in.ID, Status: traffic.StatusOK, Value: res.Result}
			if res.Trap != "" {
				v.Status = traffic.StatusTrap
			}
			ref.Benches[name] = append(ref.Benches[name], v)
		}
	}
	return ref, nil
}

func recordFig10() (*fig10Ref, error) {
	var buf bytes.Buffer
	rows, err := harness.Figure10(context.Background(), &buf, harness.Options{Seed: fig10Seed, Parallel: true, Workers: nproc()})
	if err != nil {
		return nil, err
	}
	return &fig10Ref{Seed: fig10Seed, Text: buf.String(), Rows: rows}, nil
}
