package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// obsField is one registered metric handle: a struct field of type
// *obs.Counter, *obs.Gauge, *obs.Histogram or *watch.Progress.
type obsField struct {
	name string
	kind string // Counter, Gauge, Histogram, Progress
	pos  token.Pos
}

// obsUpdate summarizes how one handle field is mutated across the
// program.
type obsUpdate struct {
	any      bool // some updating method is called
	gaugeInc bool
	gaugeDec bool // Dec, Set or Add
	push     bool // Progress.Push
	pop      bool // Progress.Pop
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
//   - every *obs.Gauge field that is ever Inc'd must also be Dec'd (or
//     Set/Add'd) somewhere — a level gauge that only rises, like a queue
//     depth counting arrivals but not departures, reads as an
//     ever-growing backlog;
//   - every *watch.Progress field (a queue-liveness handle from the
//     watchdog) must have both Push and Pop call sites — a half-wired
//     handle either trips the queue-stall detector permanently (Push
//     without Pop) or drives the depth negative (Pop without Push);
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
	updates := make(map[string]*obsUpdate)
	var fieldOrder []string

	update := func(key string) *obsUpdate {
		u, ok := updates[key]
		if !ok {
			u = &obsUpdate{}
			updates[key] = u
		}
		return u
	}

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
						if kind := obsHandleKind(v.Type()); kind != "" {
							key := obsFieldKey(pass.Pkg.Path, v)
							if _, seen := fields[key]; !seen {
								fields[key] = &obsField{name: pass.Pkg.Types.Name() + "." + fieldOwner(info, n) + v.Name(), kind: kind, pos: n.Pos()}
								fieldOrder = append(fieldOrder, key)
							}
						}
					}
				case *ast.SelectorExpr:
					recordObsUpdate(pass.Pkg.Path, info, n, update)
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
			f := fields[key]
			u := updates[key]
			switch {
			case (u == nil || !u.any) && f.kind == "Progress":
				report(f.pos, fmt.Sprintf("queue handle %s is registered but never pushed or popped: the watchdog monitors a queue that does not exist", f.name))
			case u == nil || !u.any:
				report(f.pos, fmt.Sprintf("obs handle %s is registered but never updated: it exports a permanently-zero series", f.name))
			case f.kind == "Gauge" && u.gaugeInc && !u.gaugeDec:
				report(f.pos, fmt.Sprintf("gauge %s only ever increments: a level series needs a matching Dec/Set or it reads as an ever-growing backlog", f.name))
			case f.kind == "Progress" && u.push && !u.pop:
				report(f.pos, fmt.Sprintf("queue handle %s is pushed but never popped: its depth only rises and the watchdog will report a permanent stall", f.name))
			case f.kind == "Progress" && u.pop && !u.push:
				report(f.pos, fmt.Sprintf("queue handle %s is popped but never pushed: its depth goes negative and stall detection is meaningless", f.name))
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

// obsHandleKind classifies a field type as a pointer to an obs handle or
// a watchdog queue-liveness handle. Arrays and slices of *obs.* handle
// pointers (a handle bank indexed by a label enum, like the per-reason
// abort counters) classify as their element: a bank nobody ever indexes
// into is as dead as a single unused handle. Progress collections are
// deliberately excluded — a []*watch.Progress is the watchdog's own
// monitor-side registry, which reads depths and never pushes.
func obsHandleKind(t types.Type) string {
	switch seq := t.(type) {
	case *types.Array:
		if k := obsHandleKind(seq.Elem()); k != "Progress" {
			return k
		}
		return ""
	case *types.Slice:
		if k := obsHandleKind(seq.Elem()); k != "Progress" {
			return k
		}
		return ""
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return ""
	}
	for _, k := range []string{"Counter", "Gauge", "Histogram"} {
		if typeFrom(t, "obs", k) {
			return k
		}
	}
	if typeFrom(t, "watch", "Progress") {
		return "Progress"
	}
	return ""
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
func recordObsUpdate(pkgPath string, info *types.Info, sel *ast.SelectorExpr, update func(string) *obsUpdate) {
	switch sel.Sel.Name {
	case "Inc", "Add", "Dec", "Set", "Observe", "Push", "Pop":
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
	if !ok || !obj.IsField() || obj.Pkg() == nil || obsHandleKind(obj.Type()) == "" {
		return
	}
	u := update(obsFieldKey(obj.Pkg().Path(), obj))
	u.any = true
	switch sel.Sel.Name {
	case "Inc":
		u.gaugeInc = true
	case "Dec", "Set", "Add":
		u.gaugeDec = true
	case "Push":
		u.push = true
	case "Pop":
		u.pop = true
	}
}

// obsFieldKey identifies a field across Defs and Uses by its declaration
// position, which is stable within one load.
func obsFieldKey(pkgPath string, obj *types.Var) string {
	return pkgPath + "." + obj.Name() + "@" + fmt.Sprint(int(obj.Pos()))
}
