package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestReferencesCoverEverySeed(t *testing.T) {
	refDir = "ref"
	for ws := int64(1); ws <= trafficSeeds; ws++ {
		s, err := loadSteadyRef(ws)
		if err != nil {
			t.Fatal(err)
		}
		if s.Seed != ws || s.EpochLen != steadyEpoch || len(s.Epochs) != steadyRefEpochs {
			t.Errorf("steady seed %d: seed %d, %d epochs of %d", ws, s.Seed, len(s.Epochs), s.EpochLen)
		}
	}
	c, err := loadChurnRef()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range serveBenches {
		if len(c.Benches[b]) == 0 {
			t.Errorf("churn: no values for %s", b)
		}
	}
	f, err := loadFig10Ref()
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != fig10Seed || len(f.Rows) != 11 {
		t.Errorf("fig10: seed %d, %d rows", f.Seed, len(f.Rows))
	}
}

// The seed-1 Figure 10 reference is the Figure 10 section of the
// committed paper-scale results.
func TestFig10ReferenceMatchesExperimentsFull(t *testing.T) {
	refDir = "ref"
	full, err := os.ReadFile("../experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(full), "================ Figure 10 ================\n")
	if !ok {
		t.Fatal("no Figure 10 section in experiments_full.txt")
	}
	section, _, _ = strings.Cut(section, "\n\n")
	ref, err := loadFig10Ref()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Text != section+"\n" {
		t.Errorf("fig10 seed 1 reference differs from experiments_full.txt:\n%s\nvs\n%s", ref.Text, section)
	}
}

// BENCHMARK.json names workloads the benchmark has, and exactly the
// metrics it reports, with the same units.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, code []metricSpec) {
		if len(listed) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(listed), len(code))
		}
		for i := range min(len(listed), len(code)) {
			if listed[i].Name != code[i].name || listed[i].Unit != code[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, listed[i].Name, listed[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, reportedMetrics(false))
	check("per_layer", spec.PerLayer, reportedMetrics(true))
}

func TestCompareRefusesDifferentCPUs(t *testing.T) {
	a := meta{CPUModel: "Xeon A", CPUMHz: 2700, NProc: 2, GOMAXPROCS: 2, Workload: "fig10", Seconds: 20,
		ProbeBeforeMs: 40, ProbeAfterMs: 41}
	b := a
	if why := comparable(a, b); why != "" {
		t.Errorf("identical metadata refused: %s", why)
	}
	b.CPUModel = "Xeon B"
	if comparable(a, b) == "" {
		t.Error("different CPU models compared")
	}
	b = a
	b.CPUMHz = 2100
	if comparable(a, b) == "" {
		t.Error("2.7 and 2.1 GHz parts of one model compared")
	}
	b = a
	b.GOMAXPROCS = 4
	if comparable(a, b) == "" {
		t.Error("different GOMAXPROCS compared")
	}
}

func TestCompareRefusesHostSpeedDrift(t *testing.T) {
	a := meta{CPUModel: "Xeon", NProc: 2, GOMAXPROCS: 2, Workload: "fig10", Seconds: 20,
		ProbeBeforeMs: 40, ProbeAfterMs: 40}
	b := a
	b.ProbeBeforeMs, b.ProbeAfterMs = 42, 43
	if why := comparable(a, b); why != "" {
		t.Errorf("probes within tolerance refused: %s", why)
	}
	b.ProbeBeforeMs, b.ProbeAfterMs = 72, 72
	if comparable(a, b) == "" {
		t.Error("results at 1.8x different host speeds compared")
	}
	b.ProbeBeforeMs, b.ProbeAfterMs = 30, 50
	if comparable(a, b) == "" {
		t.Error("a run during which the host's speed moved was compared")
	}
}
