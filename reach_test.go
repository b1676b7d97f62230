package leakest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the non-test functions that no program reaches but
// stay, each with its reason. Keys are "pkg.Func" or "pkg.Type.Method".
var reachAllow = map[string]string{
	"fault.Arm":                    "test-only fault injection, by design",
	"fault.Reset":                  "test-only fault injection, by design",
	"fault.Hits":                   "test-only fault injection, by design",
	"placement.RowMajor":           "placement fixture of five packages' tests",
	"device.MOSFET.OffLeakage":     "independent reference for other packages' tests",
	"stats.TotalVariationDistance": "independent reference for other packages' tests",
}

// stdlibCalls are the method names the standard library calls through
// interfaces the module never names: encoding/json, errors.Is/As and flag.
var stdlibCalls = map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true, "Is": true, "Unwrap": true, "Set": true}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestReachability type-checks every non-test file of the module (and of
// the perfbench module, which pins internal entry points) and walks the
// call graph from its roots: every main, every init, package-level
// declarations and the root package's exported API. A call through an
// interface reaches every method of that name. A function left over is
// code only tests reach: delete it, or allowlist it with a reason.
func TestReachability(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		ip := strings.TrimSuffix("leakest/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		files[ip] = append(files[ip], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std, pkgs := importer.Default(), map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (p *types.Package, err error) {
		if files[path] == nil {
			return std.Import(path)
		}
		if pkgs[path] == nil {
			conf := types.Config{Importer: imp}
			pkgs[path], err = conf.Check(path, fset, files[path], info)
		}
		return pkgs[path], err
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	methods := map[string][]*types.Func{}
	reached := map[*types.Func]bool{}
	var roots []ast.Node
	for path := range files {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
		for _, f := range files[path] {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				if fd == nil || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && f.Name.Name == "main") {
					roots = append(roots, d)
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				decls[fn] = fd
				recv := fn.Type().(*types.Signature).Recv()
				if recv != nil {
					methods[fn.Name()] = append(methods[fn.Name()], fn)
				}
				if recv != nil && stdlibCalls[fn.Name()] ||
					path == "leakest" && fn.Exported() && (recv == nil || token.IsExported(recvName(recv.Type()))) {
					reached[fn] = true
					roots = append(roots, fd)
				}
			}
		}
	}

	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			fn, _ := info.Uses[id].(*types.Func)
			if fn == nil || reached[fn.Origin()] {
				return true
			}
			reach := []*types.Func{fn.Origin()}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				reach = append(reach, methods[fn.Name()]...)
			}
			for _, m := range reach {
				if !reached[m] && decls[m] != nil {
					roots = append(roots, decls[m])
				}
				reached[m] = true
			}
			return true
		})
	}

	var dead []string
	stale := maps.Clone(reachAllow)
	for fn, d := range decls {
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = fn.Pkg().Name() + "." + recvName(recv.Type()) + "." + fn.Name()
		}
		if !reached[fn] && reachAllow[name] == "" {
			dead = append(dead, name+" ("+fset.Position(d.Pos()).String()+")")
		} else if !reached[fn] {
			delete(stale, name)
		}
	}
	for name := range stale {
		dead = append(dead, name+" (allowlisted, but reached or gone: drop the entry)")
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions no program reaches; delete them or allowlist them in reachAllow:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}
