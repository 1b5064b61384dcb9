package main

import (
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evolvevm/internal/opspec"
)

// TestGeneratedFilesCurrent is the in-test drift gate: regenerating from
// the committed spec must reproduce every committed *_gen.go file byte for
// byte. It fails when someone edits a generated file by hand or changes
// the spec without running `go generate ./...`.
func TestGeneratedFilesCurrent(t *testing.T) {
	root := moduleRoot(t)
	for _, f := range GeneratedFiles(opspec.Table) {
		src, err := format.Source([]byte(f.Content))
		if err != nil {
			t.Fatalf("%s: generated code does not parse: %v", f.Path, err)
		}
		old, err := os.ReadFile(filepath.Join(root, f.Path))
		if err != nil {
			t.Fatalf("%s: %v", f.Path, err)
		}
		if string(old) != string(src) {
			t.Errorf("%s is out of date; regenerate with `go generate ./...`", f.Path)
		}
	}
}

// TestGeneratedFilesWellFormed proves generation is total and syntactic
// for the committed spec without touching the working tree: every output
// gofmts cleanly, carries the DO-NOT-EDIT header, and parses as a Go file
// in the expected package.
func TestGeneratedFilesWellFormed(t *testing.T) {
	files := GeneratedFiles(opspec.Table)
	if len(files) != 5 {
		t.Fatalf("generator emits %d files, want 5", len(files))
	}
	for _, f := range files {
		src, err := format.Source([]byte(f.Content))
		if err != nil {
			t.Fatalf("%s: generated code does not parse: %v", f.Path, err)
		}
		if !strings.HasPrefix(string(src), "// Code generated by cmd/tiergen") {
			t.Errorf("%s: missing generated-code header", f.Path)
		}
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, f.Path, src, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.Path, err)
		}
		wantPkg := filepath.Base(filepath.Dir(f.Path))
		if af.Name.Name != wantPkg {
			t.Errorf("%s: package %s, want %s", f.Path, af.Name.Name, wantPkg)
		}
	}
}

// TestEveryOpcodeGenerated walks the spec and asserts each opcode leaves a
// trace in the generated sources: an enum constant and metadata row in the
// bytecode tables, and — for pure ops — a semantic kernel or scalar group
// membership in the tier sources. This is the per-opcode round trip: a
// spec entry that silently falls out of generation fails here by name.
func TestEveryOpcodeGenerated(t *testing.T) {
	byPath := map[string]string{}
	for _, f := range GeneratedFiles(opspec.Table) {
		byPath[f.Path] = f.Content
	}
	ops := byPath["internal/bytecode/ops_gen.go"]
	sem := byPath["internal/interp/sem_gen.go"]
	fuse := byPath["internal/interp/fuse_gen.go"]
	engine := byPath["internal/interp/engine_run_gen.go"]
	for i := range opspec.Table {
		o := &opspec.Table[i]
		if !strings.Contains(ops, o.Enum) {
			t.Errorf("%s: no enum constant in ops_gen.go", o.Enum)
		}
		if !strings.Contains(ops, "\""+o.Name+"\"") {
			t.Errorf("%s: mnemonic %q missing from ops_gen.go", o.Enum, o.Name)
		}
		// Segment-admitted ops (and branches) get a row in the sparse
		// opSegClass table; control and allocating ops stay segNone, the
		// array's zero value, and are legitimately absent.
		segmentAdmitted := o.Jump || (o.Class != opspec.Control && !o.Alloc)
		if segmentAdmitted && !strings.Contains(fuse, "bytecode."+o.Enum) {
			t.Errorf("%s: no fusion classification in fuse_gen.go", o.Enum)
		}
		if o.Class != opspec.Pure {
			continue
		}
		if o.CanTrap() {
			// Trapping group members get per-member dispatch arms that
			// splice the trap condition; they are excluded from the shared
			// scalar helpers.
			if !strings.Contains(engine, "case bytecode."+o.Enum+":") {
				t.Errorf("%s: trapping op has no dispatch arm in engine_run_gen.go", o.Enum)
			}
		} else if o.Group != "" {
			// The final member of each scalar group becomes the helper's
			// default arm, annotated with its enum.
			if !strings.Contains(sem, "case bytecode."+o.Enum) &&
				!strings.Contains(sem, "default: // "+o.Enum) {
				t.Errorf("%s: grouped op missing from its scalar helper in sem_gen.go", o.Enum)
			}
		} else if !strings.Contains(sem, "func sem"+o.Enum) {
			t.Errorf("%s: kernel op has no sem%s in sem_gen.go", o.Enum, o.Enum)
		}
	}
}

// moduleRoot locates the repository root (where go.mod lives) from the
// test's working directory, cmd/tiergen.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}
