package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneRandomStreamConstructor holds the one-constructor rule: no
// program file under internal/ or cmd/ outside internal/randsrc names
// math/rand.NewSource. Every stream is seeded through randsrc.New, which
// yields the same numbers without building math/rand's 4.9 KiB register
// up front. The rule's own package must name it (randsrc's init derives
// its table from it), which proves the scan sees such a reference.
func TestOneRandomStreamConstructor(t *testing.T) {
	allowed := filepath.Join("internal", "randsrc")
	fset := token.NewFileSet()
	var files, inRandsrc int
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, pos := range newSourceRefs(f) {
				if filepath.Dir(path) == allowed {
					inRandsrc++
					continue
				}
				t.Errorf("%s: math/rand.NewSource outside internal/randsrc; seed the stream with randsrc.New", fset.Position(pos))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 || inRandsrc == 0 {
		t.Fatalf("scanned %d files and found %d references in internal/randsrc: the scan is not seeing the tree", files, inRandsrc)
	}
}

// newSourceRefs returns the position of every reference to
// math/rand.NewSource in f, under whatever name f imports math/rand.
func newSourceRefs(f *ast.File) []token.Pos {
	name := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
			name = "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" || name == "_" {
		return nil
	}
	var refs []token.Pos
	sels := map[*ast.Ident]bool{} // field and method names: x.NewSource is not a reference
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sels[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && x.Name == name && n.Sel.Name == "NewSource" {
				refs = append(refs, n.Pos())
			}
		case *ast.Ident:
			if name == "." && n.Name == "NewSource" && !sels[n] {
				refs = append(refs, n.Pos())
			}
		}
		return true
	})
	return refs
}
