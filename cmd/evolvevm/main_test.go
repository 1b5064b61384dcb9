package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the CLI under test: with EVOLVEVM_MAIN_ARGS set,
// the test binary runs main on those (newline-separated) arguments
// instead of the tests, so a test can observe the real exit code and
// output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EVOLVEVM_MAIN_ARGS"); ok {
		os.Args = append([]string{"evolvevm"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI in a child process and returns its exit code and
// combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EVOLVEVM_MAIN_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &ee):
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running CLI: %v", err)
	return 0, ""
}

const dumpSrc = `
func main() locals i
  const 6
  const 7
  imul
  ret
end
`

// TestDumpRejectsInvalidLevel: -dump outside -1..2 is a usage error, not
// a silent O2 disassembly.
func TestDumpRejectsInvalidLevel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.evm")
	if err := os.WriteFile(path, []byte(dumpSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"3", "-2", "-3", "99"} {
		code, out := runCLI(t, "-asm", path, "-dump", level)
		if code != 2 {
			t.Errorf("-dump %s: exit code %d, want 2; output:\n%s", level, code, out)
		}
		if !strings.Contains(out, "level must be in -1..2") || strings.Contains(out, "; main at") {
			t.Errorf("-dump %s: want a usage error and no disassembly, got:\n%s", level, out)
		}
	}
	for _, level := range []string{"-1", "0", "2"} {
		code, out := runCLI(t, "-asm", path, "-dump", level)
		if code != 0 || !strings.Contains(out, "; main at") {
			t.Errorf("-dump %s: exit code %d, output:\n%s", level, code, out)
		}
	}
}
