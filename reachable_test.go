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

// reachableAllowlist names the functions, methods and types that no main
// reaches but that stay, one "entry  reason" per line.
const reachableAllowlist = "testdata/reachable_allowlist.txt"

// TestEveryFunctionIsReachable fails on a top-level function or a method of
// this module that no program reaches. The roots are every main, every init,
// every package-level declaration and every allowlist entry; reached code
// reaches what it refers to. A method counts as reached when reached code
// names it on a concrete receiver (a call, a method value or a method
// expression), when reached code calls an interface method of the same name,
// or when its name is a method of an interface declared in a standard-library
// package the module depends on (String, Error, MarshalJSON, ServeHTTP, ...),
// whose callers the pass cannot see.
//
// An allowlist entry names a function (importpath.Name), a method
// (importpath.Type.Method) or a type (importpath.Type, which roots all its
// methods). An entry that is no longer declared, or that is reached without
// the allowlist, fails too; a type entry is reached when all its methods are.
//
// Every package of the module is type-checked once from source, in
// dependency order; the standard library is read from export data.
func TestEveryFunctionIsReachable(t *testing.T) {
	allow := readAllowlist(t)
	g := loadCallGraph(t)

	reached := g.reach(nil)
	for _, name := range sortedKeys(allow) {
		methods, isType := g.methods[name]
		stale := reached[name]
		if isType {
			stale = allReached(methods, reached)
		}
		switch {
		case !g.declared[name] && !isType:
			t.Errorf("%s: allowlisted but not declared; drop it from %s", name, reachableAllowlist)
		case stale:
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

func allReached(names []string, reached map[string]bool) bool {
	for _, name := range names {
		if !reached[name] {
			return false
		}
	}
	return true
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

// callGraph records, for the module's top-level functions ("importpath.Name")
// and methods ("importpath.Type.Method"), what each one's body refers to. A
// call of an interface method refers to the node "interface.Name", which
// refers in turn to every module method of that name.
type callGraph struct {
	declared map[string]bool
	pos      map[string]string   // function or method → file:line:col
	refs     map[string][]string // node → nodes its body refers to
	methods  map[string][]string // "importpath.Type" → its methods
	roots    []string            // nodes that main, init, package-level declarations and std interfaces refer to
}

// reach returns every node reachable from the roots and extra. A type in
// extra stands for all its methods.
func (g *callGraph) reach(extra map[string]bool) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), g.roots...)
	for name := range extra {
		stack = append(append(stack, name), g.methods[name]...)
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
	g := &callGraph{
		declared: map[string]bool{},
		pos:      map[string]string{},
		refs:     map[string][]string{},
		methods:  map[string][]string{},
	}
	// Methods a standard-library interface names are called where the pass
	// cannot see: fmt calls String and Error, encoding/json MarshalJSON.
	stdNames := map[string]bool{}
	addInterface := func(obj types.Object) {
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				stdNames[iface.Method(i).Name()] = true
			}
		}
	}
	addInterface(types.Universe.Lookup("error"))
	for _, p := range pkgs {
		if !p.Standard || p.ImportPath == "unsafe" {
			continue
		}
		pkg, err := std.Import(p.ImportPath)
		if err != nil {
			t.Fatalf("import %s: %v", p.ImportPath, err)
		}
		for _, name := range pkg.Scope().Names() {
			if obj, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addInterface(obj)
			}
		}
	}
	for name := range stdNames {
		g.roots = append(g.roots, "interface."+name)
	}

	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

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
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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

// add records pkg's top-level functions and methods, and what each
// declaration refers to.
func (g *callGraph) add(fset *token.FileSet, pkg *types.Package, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			owner := "" // a root: main, init, or a var/const/type declaration
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "init" &&
				!(pkg.Name() == "main" && fd.Name.Name == "main") {
				owner = node(info.Defs[fd.Name].(*types.Func))
				g.declared[owner] = true
				g.pos[owner] = fset.Position(fd.Pos()).String()
				if fd.Recv != nil {
					typ := owner[:strings.LastIndex(owner, ".")]
					g.methods[typ] = append(g.methods[typ], owner)
					g.refs["interface."+fd.Name.Name] = append(g.refs["interface."+fd.Name.Name], owner)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				name := node(fn.Origin())
				if name == "" {
					return true
				}
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

// node names fn's node in the graph: "importpath.Name" for a top-level
// function, "importpath.Type.Method" for a method of a named type and
// "interface.Method" for an interface method. It is "" for a function
// literal's or local type's function.
func node(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		if fn.Parent() != fn.Pkg().Scope() {
			return ""
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if types.IsInterface(recv.Type()) {
		return "interface." + fn.Name()
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok || named.Obj().Parent() != fn.Pkg().Scope() {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
