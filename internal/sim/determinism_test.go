package sim

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// kernelPackages are the packages whose results must be bit-identical
// across runs, worker counts and machines: the AB goldens, the
// benchmark's pins and the result cache all rest on it.
var kernelPackages = []string{"sim", "noc", "vault", "link", "host", "hmc", "traffic", "addr", "packet"}

// wallClockFuncs are the functions of package time that read or wait on
// the wall clock. Kernel time is the engine's integer picoseconds.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// orderedSinks are the calls that feed a schedule or an ordered stream:
// reached from a map range, they turn Go's random iteration order into
// event order.
var orderedSinks = map[string]bool{
	"Schedule": true, "At": true, "AtKey": true, "After": true, "Push": true,
	"Send": true, "Post": true, "Enqueue": true, "Fire": true,
}

// TestKernelSourceIsDeterministic typechecks the non-test source of the
// kernel packages and rejects every construct that can make two runs of
// one seed differ: a wall-clock read, the process-seeded math/rand, a go
// or select statement (each engine is single-threaded), and a map range
// whose body schedules an event or appends to ordered output. The
// determinism tests compare runs only at the seeds they run; this names
// the line that would break all of them.
func TestKernelSourceIsDeterministic(t *testing.T) {
	imp := &srcImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*srcPackage{}}
	report := func(n ast.Node, format string, args ...any) {
		t.Errorf("%s: "+format, append([]any{imp.fset.Position(n.Pos())}, args...)...)
	}
	for _, name := range kernelPackages {
		if _, err := imp.Import("hmcsim/internal/" + name); err != nil {
			t.Fatal(err)
		}
		p := imp.pkgs["internal/"+name]
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ImportSpec:
					if path, _ := strconv.Unquote(n.Path.Value); path == "math/rand" || path == "math/rand/v2" {
						report(n, "imports %s; use the engine's seeded Rand", path)
					}
				case *ast.SelectorExpr:
					if fn, ok := p.info.Uses[n.Sel].(*types.Func); ok && fn.Pkg() != nil &&
						fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
						report(n, "time.%s reads the wall clock; take time from the engine", fn.Name())
					}
				case *ast.GoStmt:
					report(n, "go statement; every engine is single-threaded")
				case *ast.SelectStmt:
					report(n, "select statement; its case choice is random")
				case *ast.RangeStmt:
					if _, ok := p.info.TypeOf(n.X).Underlying().(*types.Map); ok {
						if sink := orderedSink(p.info, n.Body); sink != "" {
							report(n, "map range %s in random order; range over sorted keys", sink)
						}
					}
				}
				return true
			})
		}
	}
}

// orderedSink names the first call in body that schedules an event or
// appends to ordered output, or returns "".
func orderedSink(info *types.Info, body ast.Node) (sink string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				if _, builtin := info.Uses[fn].(*types.Builtin); builtin && fn.Name == "append" {
					sink = "appends"
				} else if orderedSinks[fn.Name] {
					sink = "calls " + fn.Name
				}
			case *ast.SelectorExpr:
				if orderedSinks[fn.Sel.Name] {
					sink = "calls " + fn.Sel.Name
				}
			}
		}
		return sink == ""
	})
	return sink
}

// srcImporter typechecks this module's packages from their non-test
// source, each once, and takes the standard library from export data.
type srcImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*srcPackage
}

type srcPackage struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// Import typechecks a package of this module, memoised by its directory
// relative to the module root, or asks std for any other path.
func (im *srcImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "hmcsim/")
	if !ok {
		return im.std.Import(path)
	}
	if p, ok := im.pkgs[dir]; ok {
		return p.types, nil
	}
	names, err := filepath.Glob(filepath.Join("..", "..", dir, "*.go"))
	if err != nil {
		return nil, err
	}
	p := &srcPackage{info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no Go source in %s", dir)
	}
	conf := types.Config{Importer: im}
	if p.types, err = conf.Check(path, im.fset, p.files, p.info); err != nil {
		return nil, err
	}
	im.pkgs[dir] = p
	return p.types, nil
}
