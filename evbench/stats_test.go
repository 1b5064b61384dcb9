package main

import "testing"

func TestNearestRank(t *testing.T) {
	hundred := make(sample, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		s    sample
		p    int
		want float64
	}{
		{sample{7}, p50, 7},
		{sample{7}, p99, 7},
		{sample{3, 1, 2}, p50, 2},
		{sample{4, 1, 3, 2}, p50, 2}, // rank ceil(0.5*4) = 2, no interpolation
		{hundred, p50, 50},
		{hundred, p90, 90},
		{hundred, p99, 99}, // exactly rank 99: no floating-point drift to 100
		{hundred, p999, 100},
		{sample{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}, p99, 10},
	} {
		if got := tc.s.q(tc.p); got != tc.want {
			t.Errorf("%s of %v = %v, want %v", pctName(tc.p), tc.s, got, tc.want)
		}
	}
	if got := (sample{}).q(p50); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
}

func TestTailPercentileHasTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
	}{
		{0, 0},
		{19, 0},     // p50 rank 10: only 9 beyond
		{20, p50},   // p50 rank 10: 10 beyond
		{99, p50},   // p90 rank 90: 9 beyond
		{100, p90},  // p90 rank 90: 10 beyond
		{999, p90},  // p99 rank 990: 9 beyond
		{1000, p99}, // p99 rank 990: 10 beyond
		{9999, p99},
		{10000, p999},
		{50000, p999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p != 0 && beyond(p, tc.n) < 10 {
			t.Errorf("n=%d: %s has %d beyond", tc.n, pctName(p), beyond(p, tc.n))
		}
	}
	if pctName(p999) != "p99.9" || pctName(p99) != "p99" {
		t.Errorf("pctName: %q %q", pctName(p999), pctName(p99))
	}
}

func TestMergeReps(t *testing.T) {
	reps := []*childResult{
		{E2E: map[string]float64{"latency_p50_ms": 30, "latency_p99_ms": 30, "slo_attain": 1, "cpu_s": 3}},
		{E2E: map[string]float64{"latency_p50_ms": 10, "latency_p99_ms": 10, "slo_attain": 0, "cpu_s": 1}},
		{E2E: map[string]float64{"latency_p50_ms": 20, "latency_p99_ms": 20, "slo_attain": 1, "cpu_s": 2}},
	}
	got := mergeReps(reps)
	want := map[string]float64{"latency_p50_ms": 20, "latency_p99_ms": 20, "slo_attain": 1, "cpu_s": 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestTrafficSeedCoversEverySeed(t *testing.T) {
	for n, want := range map[int64]int64{1: 1, 2: 2, trafficSeeds: trafficSeeds, trafficSeeds + 1: 1, 0: trafficSeeds, -1: trafficSeeds - 1, 1 << 40: 1 + ((1<<40)-1)%trafficSeeds} {
		if got := trafficSeed(n); got != want {
			t.Errorf("trafficSeed(%d) = %d, want %d", n, got, want)
		}
	}
}
