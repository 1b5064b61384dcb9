package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"evolvevm/internal/interp"
)

func TestUnknownExperimentExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr %q missing diagnosis", errOut.String())
	}
}

func TestBadFlagExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestUnknownBenchmarkExits2: a typo in -bench is a usage error naming
// the benchmark, not a run over a partial or empty suite.
func TestUnknownBenchmarkExits2(t *testing.T) {
	for _, exp := range []string{"table1", "fig8", "fig10", "all"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-exp", exp, "-quick", "-bench", "compress,typo"}, &out, &errOut)
		if code != 2 {
			t.Fatalf("-exp %s: exit code %d, want 2", exp, code)
		}
		if !strings.Contains(errOut.String(), `"typo"`) {
			t.Errorf("-exp %s: stderr %q does not name the benchmark", exp, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s: ran anyway:\n%s", exp, out.String())
		}
	}
}

func TestMissingResumeFileExits1(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "table1",
		"-resume", filepath.Join(t.TempDir(), "absent.json")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-resume") {
		t.Errorf("stderr %q does not mention -resume", errOut.String())
	}
}

// TestCheckpointResumeReproducesOutput is the driver-level acceptance
// check: a completed run saves a checkpoint, and a resumed run replays it
// to byte-identical stdout.
func TestCheckpointResumeReproducesOutput(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	args := []string{"-exp", "table1", "-quick", "-seed", "8", "-bench", "compress"}

	var first, firstErr bytes.Buffer
	if code := run(append(args, "-checkpoint", ckpt), &first, &firstErr); code != 0 {
		t.Fatalf("first run exit %d: %s", code, firstErr.String())
	}
	var resumed, resumedErr bytes.Buffer
	if code := run(append(args, "-resume", ckpt), &resumed, &resumedErr); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, resumedErr.String())
	}
	if first.String() != resumed.String() {
		t.Errorf("resumed stdout differs from original:\n--- first ---\n%s--- resumed ---\n%s",
			first.String(), resumed.String())
	}
}

// TestDeadlineAbortIsTypedAndResumable: an expiring -timeout must produce
// a clean typed cancellation (exit 1, "deadline exceeded" on stderr, no
// panic), save the checkpoint, and a -resume of that checkpoint must then
// finish with the same output as an uninterrupted run.
func TestDeadlineAbortIsTypedAndResumable(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	args := []string{"-exp", "fig8", "-quick", "-seed", "8", "-bench", "mtrt"}

	var aborted, abortedErr bytes.Buffer
	code := run(append(args, "-checkpoint", ckpt, "-timeout", "30ms"), &aborted, &abortedErr)
	if code != 1 {
		t.Fatalf("interrupted run exit %d (stderr %q), want 1", code, abortedErr.String())
	}
	if !strings.Contains(abortedErr.String(), "deadline exceeded") {
		t.Errorf("stderr %q does not report a typed deadline abort", abortedErr.String())
	}

	var resumed, resumedErr bytes.Buffer
	if code := run(append(args, "-resume", ckpt), &resumed, &resumedErr); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, resumedErr.String())
	}
	var clean, cleanErr bytes.Buffer
	if code := run(args, &clean, &cleanErr); code != 0 {
		t.Fatalf("clean run exit %d: %s", code, cleanErr.String())
	}
	if resumed.String() != clean.String() {
		t.Errorf("post-abort resume differs from an uninterrupted run:\n--- resumed ---\n%s--- clean ---\n%s",
			resumed.String(), clean.String())
	}
}

// TestNegativeCountsExit2: a negative count is a usage error naming the
// flag, not a silent fallback to the default.
func TestNegativeCountsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-runs", "-3"},
		{"-corpus", "-1"},
		{"-workers", "-2"},
		{"-timeout", "-1s"},
	} {
		var out, errOut bytes.Buffer
		code := run(append([]string{"-exp", "table1", "-quick", "-bench", "compress"}, args...), &out, &errOut)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), args[0]+" must not be negative") {
			t.Errorf("%v: stderr %q does not name the flag", args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran anyway:\n%s", args, out.String())
		}
	}
}

// TestTraceStatsReportCompileCountersWithoutDegradations: -tracestats
// prints the plan-install line whether or not any trace degraded.
func TestTraceStatsReportCompileCountersWithoutDegradations(t *testing.T) {
	interp.ResetTraceStats()
	var errOut bytes.Buffer
	printTraceStats(&errOut)
	for _, want := range []string{"trace tier: no degradations", "plan installs:"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut.String())
		}
	}
}
