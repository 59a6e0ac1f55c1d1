package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachableAllowlist names the top-level functions that no main reaches but
// that stay, one "importpath.Name  reason" per line.
const reachableAllowlist = "testdata/reachable_allowlist.txt"

// TestEveryFunctionIsReachable fails on a top-level function of this module
// that no program reaches. The roots are every main, every init, every
// method, every package-level variable initialiser and every allowlist
// entry; a function is reachable if a root's body refers to it, directly or
// through other reachable functions. An allowlist entry that is no longer
// declared, or that a root other than the allowlist now reaches, fails too.
//
// Every package of the module is type-checked once from source, in
// dependency order; the standard library is read from export data.
func TestEveryFunctionIsReachable(t *testing.T) {
	allow := readAllowlist(t)
	g := loadCallGraph(t)

	reached := g.reach(nil)
	for _, name := range sortedKeys(allow) {
		if !g.declared[name] {
			t.Errorf("%s: allowlisted but not declared; drop it from %s", name, reachableAllowlist)
		} else if reached[name] {
			t.Errorf("%s: allowlisted but reachable without the allowlist; drop it from %s", name, reachableAllowlist)
		}
	}
	reached = g.reach(allow)
	for _, name := range sortedKeys(g.declared) {
		if !reached[name] {
			t.Errorf("%s (%s): no main reaches it; delete it, or list it in %s with a reason",
				name, g.pos[name], reachableAllowlist)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readAllowlist(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(reachableAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", reachableAllowlist, line, name)
		}
		allow[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// callGraph records, for the module's top-level functions (by
// "importpath.Name"), which of them each one's body refers to.
type callGraph struct {
	declared map[string]bool
	pos      map[string]string   // function → file:line:col
	refs     map[string][]string // function → functions its body refers to
	roots    []string            // functions that main, init, methods and var initialisers refer to
}

// reach returns every function reachable from the roots and extra.
func (g *callGraph) reach(extra map[string]bool) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), g.roots...)
	for name := range extra {
		stack = append(stack, name)
	}
	for len(stack) > 0 {
		name := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[name] {
			continue
		}
		seen[name] = true
		stack = append(stack, g.refs[name]...)
	}
	return seen
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

func loadCallGraph(t *testing.T) *callGraph {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	g := &callGraph{
		declared: map[string]bool{},
		pos:      map[string]string{},
		refs:     map[string][]string{},
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// go list -deps lists every package after its dependencies.
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		dir, err := filepath.Rel(wd, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		g.add(fset, pkg, files, info)
	}
	return g
}

// add records pkg's top-level functions and what each declaration refers to.
func (g *callGraph) add(fset *token.FileSet, pkg *types.Package, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			owner := "" // a root: a method, main, init, or a var/const/type declaration
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil &&
				fd.Name.Name != "init" && !(pkg.Name() == "main" && fd.Name.Name == "main") {
				owner = pkg.Path() + "." + fd.Name.Name
				g.declared[owner] = true
				g.pos[owner] = fset.Position(fd.Pos()).String()
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				fn = fn.Origin()
				if fn.Parent() != fn.Pkg().Scope() {
					return true
				}
				name := fn.Pkg().Path() + "." + fn.Name()
				if owner == "" {
					g.roots = append(g.roots, name)
				} else {
					g.refs[owner] = append(g.refs[owner], name)
				}
				return true
			})
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
