package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// obsField is one registered metric handle: a struct field of type
// *obs.Counter, *obs.Gauge or *obs.Histogram.
type obsField struct {
	name string
	pos  token.Pos
}

// NewObsComplete returns the obscomplete analyzer, which keeps the
// observability layer (PR 1's guarantee) complete as the engines evolve:
//
//   - every exported trace event kind (constant of type Kind in a
//     package named "trace") must be recorded by at least one package
//     outside trace — an event that exists but is never emitted means a
//     protocol lifecycle step silently lost its instrumentation;
//   - every obs handle field (struct field of type *obs.Counter,
//     *obs.Gauge or *obs.Histogram, or an array/slice of those — a
//     label-indexed handle bank like the per-reason abort counters) must
//     be updated somewhere — a handle that is registered but never
//     Inc/Add/Observe'd exports a permanently-zero series that
//     masquerades as "nothing happened";
//   - every exported latency-attribution phase (constant of type Phase in
//     a package named "metrics") must be used by at least one package
//     outside metrics — a phase registered in the breakdown schema that
//     no engine ever records leaves a silent hole in every Report's
//     phase attribution.
//
// Intentional exceptions carry `//lint:allow obscomplete <reason>` on
// the constant or field declaration.
func NewObsComplete() *Analyzer {
	type kindConst struct {
		name string
		pos  token.Pos
	}
	var kinds []kindConst
	usedOutside := make(map[string]bool) // kind const name -> used outside trace
	var phases []kindConst
	phaseUsed := make(map[string]bool) // phase const name -> used outside metrics
	fields := make(map[string]*obsField)
	updated := make(map[string]bool) // field key -> some updating method is called
	var fieldOrder []string

	a := &Analyzer{
		Name: "obscomplete",
		Doc:  "cross-references trace event kinds and obs metric handles against their call sites",
	}
	a.Run = func(pass *Pass) error {
		info := pass.Pkg.Info
		inTrace := pass.Pkg.Types.Name() == "trace"
		inMetrics := pass.Pkg.Types.Name() == "metrics"
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if c, ok := info.Uses[n].(*types.Const); ok && isTraceKindConst(c) && !inTrace {
						usedOutside[c.Name()] = true
					}
					if inTrace {
						if c, ok := info.Defs[n].(*types.Const); ok && isTraceKindConst(c) && c.Exported() {
							kinds = append(kinds, kindConst{name: c.Name(), pos: n.Pos()})
						}
					}
					if c, ok := info.Uses[n].(*types.Const); ok && isMetricsPhaseConst(c) && !inMetrics {
						phaseUsed[c.Name()] = true
					}
					if inMetrics {
						if c, ok := info.Defs[n].(*types.Const); ok && isMetricsPhaseConst(c) && c.Exported() {
							phases = append(phases, kindConst{name: c.Name(), pos: n.Pos()})
						}
					}
					if v, ok := info.Defs[n].(*types.Var); ok && v.IsField() {
						if isObsHandle(v.Type()) {
							key := obsFieldKey(pass.Pkg.Path, v)
							if _, seen := fields[key]; !seen {
								fields[key] = &obsField{name: pass.Pkg.Types.Name() + "." + fieldOwner(info, n) + v.Name(), pos: n.Pos()}
								fieldOrder = append(fieldOrder, key)
							}
						}
					}
				case *ast.SelectorExpr:
					recordObsUpdate(info, n, updated)
				}
				return true
			})
		}
		return nil
	}
	a.Finish = func(prog *Program, report func(token.Pos, string)) error {
		for _, k := range kinds {
			if !usedOutside[k.name] {
				report(k.pos, fmt.Sprintf("trace event %s is declared but never recorded outside package trace: a protocol lifecycle step lost its instrumentation", k.name))
			}
		}
		for _, p := range phases {
			if !phaseUsed[p.name] {
				report(p.pos, fmt.Sprintf("latency phase %s is registered but never recorded by any engine: every Report's phase breakdown silently lacks that segment", p.name))
			}
		}
		sort.Strings(fieldOrder)
		for _, key := range fieldOrder {
			if f := fields[key]; !updated[key] {
				report(f.pos, fmt.Sprintf("obs handle %s is registered but never updated: it exports a permanently-zero series", f.name))
			}
		}
		return nil
	}
	return a
}

func isTraceKindConst(c *types.Const) bool {
	return c.Pkg() != nil && c.Pkg().Name() == "trace" && typeFrom(c.Type(), "trace", "Kind")
}

func isMetricsPhaseConst(c *types.Const) bool {
	return c.Pkg() != nil && c.Pkg().Name() == "metrics" && typeFrom(c.Type(), "metrics", "Phase")
}

// isObsHandle reports whether a field type is a pointer to an obs
// handle. Arrays and slices of them (a handle bank indexed by a label
// enum, like the per-reason abort counters) count as their element: a
// bank nobody ever indexes into is as dead as a single unused handle.
func isObsHandle(t types.Type) bool {
	switch seq := t.(type) {
	case *types.Array:
		return isObsHandle(seq.Elem())
	case *types.Slice:
		return isObsHandle(seq.Elem())
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return false
	}
	for _, k := range []string{"Counter", "Gauge", "Histogram"} {
		if typeFrom(t, "obs", k) {
			return true
		}
	}
	return false
}

// fieldOwner names the struct type a field identifier belongs to, for
// readable diagnostics ("siteObs."); best-effort.
func fieldOwner(info *types.Info, name *ast.Ident) string {
	// The defining ident's object has no back-pointer to the struct; the
	// diagnostic position already disambiguates, so an empty owner is
	// acceptable.
	return ""
}

// recordObsUpdate marks handle mutations of the form x.field.Method()
// and, for handle banks, x.field[i].Method().
func recordObsUpdate(info *types.Info, sel *ast.SelectorExpr, updated map[string]bool) {
	switch sel.Sel.Name {
	case "Inc", "Add", "Set", "Observe":
	default:
		return
	}
	recv := ast.Unparen(sel.X)
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ast.Unparen(ix.X)
	}
	inner, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := info.Uses[inner.Sel].(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil || !isObsHandle(obj.Type()) {
		return
	}
	updated[obsFieldKey(obj.Pkg().Path(), obj)] = true
}

// obsFieldKey identifies a field across Defs and Uses by its declaration
// position, which is stable within one load.
func obsFieldKey(pkgPath string, obj *types.Var) string {
	return pkgPath + "." + obj.Name() + "@" + fmt.Sprint(int(obj.Pos()))
}
