package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// defaultGuardedbyPkgs are the packages whose shared mutable state is
// annotated: the engines, the transport's inbox, the redo log, the 2PC
// layer, the cluster membrane, the telemetry plane and the watchdog.
var defaultGuardedbyPkgs = []string{
	"internal/core",
	"internal/comm",
	"internal/wal",
	"internal/twopc",
	"internal/cluster",
	"internal/telemetry",
	"internal/watch",
}

// guardedbyRe matches the field annotation:
//
//	// repl:guardedby(mu)
//
// on a struct field's doc or trailing comment, naming the sibling mutex
// field that must be held (Lock or RLock) across every access.
var guardedbyRe = regexp.MustCompile(`repl:guardedby\(([A-Za-z_][A-Za-z0-9_]*)\)`)

// gbGuard is one annotated field: the canonical key of the mutex that
// guards it plus the annotation's spelling for messages.
type gbGuard struct {
	mutexKey  string
	guardName string
}

// gbFunc is one analyzed function body: a declared function or the body
// of a function literal (which runs at an unknown time, so it is its own
// entry point with nothing held).
type gbFunc struct {
	name  string
	pkg   *Package
	g     *CFG
	isLit bool
}

// NewGuardedBy returns the guardedby analyzer. Struct fields annotated
// `// repl:guardedby(mu)` must only be accessed while the named sibling
// mutex is held. The held set is tracked flow-sensitively through the
// CFG (Lock/RLock adds, Unlock/RUnlock removes, `defer mu.Unlock()`
// keeps the mutex held for the rest of the function), and a fact
// survives a join only if it holds on every incoming path. Mutexes are
// canonicalized instance-insensitively as pkg.Type.field, exactly like
// lockorder.
//
// Helpers that expect the caller to hold the lock (the *Locked naming
// convention) need no annotation: the held set at entry is the greatest
// fixed point over the static call graph — the intersection of what is
// held at every static call site, to any depth of helper nesting.
// Functions with no static caller (interface methods, exported API,
// goroutine and defer bodies) are entry points and start with nothing
// held. Single-threaded exceptions — constructors and recovery code
// that touch guarded fields before the value is published — carry a
// function-scoped `//lint:allow guardedby <reason>` in their doc
// comment.
func NewGuardedBy(pkgs ...string) *Analyzer {
	if len(pkgs) == 0 {
		pkgs = defaultGuardedbyPkgs
	}
	guards := make(map[string]gbGuard) // field key pkg.Type.field -> guard
	var funcs []*gbFunc

	a := &Analyzer{
		Name: "guardedby",
		Doc:  "checks that fields annotated repl:guardedby(mu) are only accessed with the named mutex held on every path",
	}
	a.Run = func(pass *Pass) error {
		collectGuardAnnotations(pass, guards)
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				funcs = append(funcs, &gbFunc{
					name: obj.FullName(),
					pkg:  pass.Pkg,
					g:    BuildCFG(fd.Body),
				})
				// Function literal bodies are separate functions to the
				// dataflow: they run at an unknown time with nothing held.
				base := obj.FullName()
				n := 0
				ast.Inspect(fd.Body, func(node ast.Node) bool {
					if lit, ok := node.(*ast.FuncLit); ok {
						n++
						funcs = append(funcs, &gbFunc{
							name:  fmt.Sprintf("%s$%d", base, n),
							pkg:   pass.Pkg,
							g:     BuildCFG(lit.Body),
							isLit: true,
						})
					}
					return true
				})
			}
		}
		return nil
	}
	a.Finish = func(prog *Program, report func(pos token.Pos, msg string)) error {
		if len(guards) == 0 {
			return nil
		}
		universe := NewFactSet()
		for _, g := range guards {
			universe[g.mutexKey] = true
		}

		// Greatest fixed point for held-on-entry: start every declared
		// function at "everything held" and intersect down with what its
		// static call sites actually hold; no call sites (or only
		// defer/go sites) means entry point, nothing held. Facts only
		// shrink, so this terminates.
		entry := make(map[string]FactSet, len(funcs))
		for _, f := range funcs {
			if f.isLit {
				entry[f.name] = NewFactSet()
			} else {
				entry[f.name] = universe.Clone()
			}
		}
		for changed := true; changed; {
			changed = false
			callerHeld := make(map[string]FactSet)
			for _, f := range funcs {
				info := f.pkg.Info
				transfer := lockTransfer(info, f.name)
				collect := func(ev CFGNode, facts FactSet) {
					call, ok := ev.N.(*ast.CallExpr)
					if !ok {
						return
					}
					fn := calleeFunc(info, call)
					if fn == nil {
						return
					}
					held := NewFactSet()
					if !ev.Deferred {
						held = facts.Clone()
					}
					if have, ok := callerHeld[fn.FullName()]; ok {
						for k := range have {
							if !held[k] {
								delete(have, k)
							}
						}
					} else {
						callerHeld[fn.FullName()] = held
					}
				}
				ForwardMust(f.g, entry[f.name], transfer, collect)
			}
			for _, f := range funcs {
				if f.isLit {
					continue
				}
				next, ok := callerHeld[f.name]
				if !ok {
					next = NewFactSet()
				}
				if !sameFacts(entry[f.name], next) {
					entry[f.name] = next
					changed = true
				}
			}
		}

		// Check pass over the configured packages.
		type site struct {
			file string
			line int
			key  string
		}
		seen := make(map[site]bool)
		for _, f := range funcs {
			if !pathMatches(f.pkg.Path, pkgs) {
				continue
			}
			info := f.pkg.Info
			check := func(ev CFGNode, facts FactSet) {
				sel, ok := ev.N.(*ast.SelectorExpr)
				if !ok {
					return
				}
				selection, ok := info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return
				}
				key := fieldKey(selection)
				guard, ok := guards[key]
				if !ok || facts[guard.mutexKey] {
					return
				}
				pos := prog.Fset.Position(sel.Sel.Pos())
				s := site{pos.Filename, pos.Line, key}
				if seen[s] {
					return
				}
				seen[s] = true
				report(sel.Sel.Pos(), fmt.Sprintf("%s is annotated // repl:guardedby(%s) but accessed without holding %s on every path to this point", key, guard.guardName, guard.mutexKey))
			}
			ForwardMust(f.g, entry[f.name], lockTransfer(info, f.name), check)
		}
		return nil
	}
	return a
}

// lockTransfer folds Lock/RLock/Unlock/RUnlock calls into the held set.
// Deferred events are skipped: a deferred Unlock releases at return (the
// mutex stays held for the rest of the function), and a `go` call does
// not run here at all.
func lockTransfer(info *types.Info, fnScope string) func(ev CFGNode, facts FactSet) {
	return func(ev CFGNode, facts FactSet) {
		if ev.Deferred {
			return
		}
		call, ok := ev.N.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch {
		case lockMethods[sel.Sel.Name]:
			if key := mutexKey(info, fnScope, sel); key != "" {
				facts[key] = true
			}
		case unlockMethods[sel.Sel.Name]:
			if key := mutexKey(info, fnScope, sel); key != "" {
				delete(facts, key)
			}
		}
	}
}

// collectGuardAnnotations scans one package's struct declarations for
// repl:guardedby field annotations, validating that the named guard is a
// sibling sync.Mutex/RWMutex field.
func collectGuardAnnotations(pass *Pass, guards map[string]gbGuard) {
	pkgName := pass.Pkg.Types.Name()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					guardName := guardDirective(field)
					if guardName == "" {
						continue
					}
					if !structHasMutex(pass, st, guardName) {
						pass.Reportf(field.Pos(), "repl:guardedby(%s) names no sibling sync.Mutex/RWMutex field in %s", guardName, ts.Name.Name)
						continue
					}
					g := gbGuard{
						mutexKey:  pkgName + "." + ts.Name.Name + "." + guardName,
						guardName: guardName,
					}
					for _, name := range field.Names {
						guards[pkgName+"."+ts.Name.Name+"."+name.Name] = g
					}
				}
			}
		}
	}
}

// guardDirective extracts the guard name from a field's doc or trailing
// comment.
func guardDirective(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedbyRe.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

// structHasMutex reports whether the struct literally declares a mutex
// field with the given name.
func structHasMutex(pass *Pass, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name != name {
				continue
			}
			if tv, ok := pass.Pkg.Info.Types[field.Type]; ok && isSyncMutex(tv.Type) {
				return true
			}
		}
	}
	return false
}

// fieldKey returns the canonical pkg.Type.field identity of the field a
// selection lands on, resolving promoted fields to the embedded struct
// that declares them so the key always matches the annotation site.
func fieldKey(selection *types.Selection) string {
	t := selection.Recv()
	idx := selection.Index()
	for _, i := range idx[:len(idx)-1] {
		st := structUnder(t)
		if st == nil || i >= st.NumFields() {
			return ""
		}
		t = st.Field(i).Type()
	}
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + selection.Obj().Name()
}

// structUnder unwraps pointers, aliases and named types to the struct
// beneath, or nil.
func structUnder(t types.Type) *types.Struct {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			t = u.Underlying()
		case *types.Struct:
			return u
		default:
			return nil
		}
	}
}

// sameFacts reports set equality.
func sameFacts(a, b FactSet) bool {
	if len(a) != len(b) {
		return false
	}
	ka := a.Keys()
	kb := b.Keys()
	sort.Strings(ka)
	sort.Strings(kb)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
