package simtest_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestNoProductionImports parses the imports of every non-test Go file
// in the repository and fails if one imports simtest: the activity layer
// is for oracles and tests only.
func TestNoProductionImports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("no module root at %s: %v", root, err)
	}
	const self = "repro/internal/sim/simtest"
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s imports %s, which only tests may import", rel, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d files under %s: the walk missed the repository", files, root)
	}
}

// waitLoop is an endless 1-cycle wait loop.
type waitLoop struct{}

func (waitLoop) Step(a *simtest.ActCtx) { a.Wait(1) }

// BenchmarkKernelActivityChain measures the activity switch: two
// activities alternate at the same timestamps, so every switch is a queue
// pop plus an inline Step. The ns/op is per completed Wait.
func BenchmarkKernelActivityChain(b *testing.B) {
	k := sim.NewKernel()
	env := simtest.New(k)
	env.Spawn("a0", waitLoop{})
	env.Spawn("a1", waitLoop{})
	b.Cleanup(func() { _ = env.Run(k.Now()) })
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 512
	for done := 0; done < b.N; done += batch {
		// Each window completes batch Waits per activity; 2 activities →
		// count iterations in activity-waits.
		if err := k.Run(sim.Time((done + batch) / 2)); err != nil {
			b.Fatal(err)
		}
	}
}
