package lint

import (
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
)

// The loader type-checks packages using only the standard library: the
// build list and each dependency's compiler export data come from
// `go list -deps -export -json`, target packages are parsed from source,
// and go/types checks them with the gc importer reading the export files.
// This is exactly what a build does, so it works offline, needs no
// third-party loader, and always agrees with the toolchain.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir         string
	ImportPath  string
	Export      string
	Standard    bool
	Name        string
	GoFiles     []string
	TestGoFiles []string
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load type-checks the packages matching patterns, resolved relative to
// dir (the module root or any directory inside it). Test files are not
// included: the analyzers enforce invariants on production code.
func Load(dir string, patterns ...string) (*Program, error) {
	return load(dir, patterns, false)
}

// LoadTests is Load with each package's in-package _test.go files
// type-checked alongside its production files, so analyzers also see
// test harness code (the chaos suite and the experiment harness lean on
// timing and randomness, where the determinism discipline matters most).
// External test packages (package foo_test) are not loaded: they are
// separate packages whose import graph would need test-variant export
// data, and this repository keeps its tests in-package.
func LoadTests(dir string, patterns ...string) (*Program, error) {
	return load(dir, patterns, true)
}

func load(dir string, patterns []string, tests bool) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// One walk for the full dependency closure with export data, one for
	// the target set. In tests mode the closure walk adds -test so the
	// extra imports test files pull in (testing, os, sibling packages)
	// have export data too.
	depsArgs := []string{"-deps", "-export", "-json=ImportPath,Export,Dir,GoFiles,Standard,Name"}
	if tests {
		depsArgs = []string{"-deps", "-test", "-export", "-json=ImportPath,Export,Dir,GoFiles,Standard,Name"}
	}
	deps, err := goList(dir, append(depsArgs, patterns...)...)
	if err != nil {
		return nil, err
	}
	targets, err := goList(dir, append([]string{"-json=ImportPath,Dir,GoFiles,TestGoFiles,Name"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, p := range deps {
		// Skip the synthesized test variants ("pkg [root.test]", the
		// generated "root.test" main): imports always resolve to the
		// plain package, and a test-variant export must not shadow it.
		if strings.Contains(p.ImportPath, " [") || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(e)
	}
	fset := token.NewFileSet()
	// One shared importer so every target sees identical dependency
	// package objects.
	imp := importer.ForCompiler(fset, "gc", lookup)
	prog := &Program{Fset: fset}
	for _, t := range targets {
		files := t.GoFiles
		if tests && len(t.TestGoFiles) > 0 {
			files = append(append([]string(nil), t.GoFiles...), t.TestGoFiles...)
		}
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadDirs type-checks a set of plain directories (no go.mod required) as
// packages whose import paths are the given names; dirs[i] provides the
// package imported as names[i]. Directories may import each other by name
// (resolved from source, in dependency order) and anything else resolves
// through the surrounding toolchain like Load. This is the loader the
// analysistest-style golden tests use for testdata trees.
func LoadDirs(root string, names []string) (*Program, error) {
	type src struct {
		name    string
		dir     string
		files   []*ast.File
		imports map[string]bool
	}
	fset := token.NewFileSet()
	srcs := make(map[string]*src, len(names))
	var external []string
	for _, name := range names {
		dir := filepath.Join(root, filepath.FromSlash(name))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		s := &src{name: name, dir: dir, imports: make(map[string]bool)}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			s.files = append(s.files, f)
			for _, im := range f.Imports {
				p := strings.Trim(im.Path.Value, `"`)
				s.imports[p] = true
			}
		}
		srcs[name] = s
	}
	for _, s := range srcs {
		for p := range s.imports {
			if _, local := srcs[p]; !local {
				external = append(external, p)
			}
		}
	}
	exports := make(map[string]string)
	if len(external) > 0 {
		sort.Strings(external)
		deps, err := goList(root, append([]string{"-deps", "-export", "-json=ImportPath,Export,Standard"}, external...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	checked := make(map[string]*Package)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(e)
	})
	imp := chainImporter{local: checked, fallback: gc}
	prog := &Program{Fset: fset}
	// Check in dependency order among the local packages.
	var order []string
	visiting := make(map[string]bool)
	var visit func(name string) error
	visit = func(name string) error {
		if checkedContains(order, name) {
			return nil
		}
		if visiting[name] {
			return fmt.Errorf("lint: import cycle through %q", name)
		}
		visiting[name] = true
		for p := range srcs[name].imports {
			if _, local := srcs[p]; local {
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		visiting[name] = false
		order = append(order, name)
		return nil
	}
	for _, name := range names {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	for _, name := range order {
		s := srcs[name]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(name, fset, s.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", name, err)
		}
		pkg := &Package{Path: name, Fset: fset, Files: s.files, Types: tpkg, Info: info}
		checked[name] = pkg
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

func checkedContains(order []string, name string) bool {
	for _, o := range order {
		if o == name {
			return true
		}
	}
	return false
}

// chainImporter resolves locally-checked packages first, then falls back
// to compiler export data.
type chainImporter struct {
	local    map[string]*Package
	fallback types.Importer
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p.Types, nil
	}
	return c.fallback.Import(path)
}
