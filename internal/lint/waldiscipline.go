package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// defaultWaldisciplinePkgs are the WAL-backed commit paths: the engines,
// which own every log-then-mutate and sync-then-externalize obligation
// (docs/DURABILITY.md).
var defaultWaldisciplinePkgs = []string{
	"internal/core",
}

// durableRe matches the sink marker in a function's doc comment:
//
//	// repl:durable        — calls must be dominated by a WAL Append
//	// repl:durable sync   — calls must be dominated by a WAL Sync
//
// The marker goes on the DECLARATION of a durable-state mutation sink
// (e.g. (*txn.Txn).Commit) or an externalization sink (e.g. BackEdge's
// 2PC reply); the analyzer then checks every call site inside
// the configured packages.
var durableRe = regexp.MustCompile(`repl:durable(\s+sync)?\b`)

// Facts tracked by the forward must-analysis.
const (
	factAppended = "wal-append"
	factSynced   = "wal-sync"
)

// durSummary says whether a function (transitively, through calls into
// analyzed source and through the bodies of its function literals)
// reaches a (*wal.SiteLog).Append or .Sync. Function literals count as
// part of their enclosing function because the armDurable idiom
// registers a closure whose append runs inside the dominated Commit.
type durSummary struct {
	appends bool
	syncs   bool
	calls   []string
}

// NewWaldiscipline returns the waldiscipline analyzer. It enforces the
// WAL's write-ahead contract on the configured packages (default:
// internal/core): every call to a sink whose declaration is marked
// `// repl:durable` must be dominated — on every control-flow path from
// the function entry, error and early-return paths included — by a call
// that reaches (*wal.SiteLog).Append, and every call to a sink marked
// `// repl:durable sync` must likewise be dominated by a call reaching
// (*wal.SiteLog).Sync. Reachability is computed as a fixed point over
// call summaries, so helper chains (armDurable → walAppendSync →
// Append+Sync) establish the fact at the helper call site. Deferred and
// `go` calls establish nothing: they do not run at their syntactic
// position.
//
// Sites where the durable record is written in a different function
// (e.g. a reply whose Prepared record was logged by the caller) carry
// `//lint:allow waldiscipline <reason>`.
func NewWaldiscipline(pkgs ...string) *Analyzer {
	if len(pkgs) == 0 {
		pkgs = defaultWaldisciplinePkgs
	}
	// sink full name -> needs Sync (false: needs Append).
	sinks := make(map[string]bool)
	summaries := make(map[string]*durSummary)
	type checkFn struct {
		pkg  *Package
		decl *ast.FuncDecl
	}
	var checks []checkFn

	a := &Analyzer{
		Name: "waldiscipline",
		Doc:  "checks that repl:durable sinks are dominated by a WAL Append, and repl:durable sync sinks by a Sync, on every path",
	}
	a.Run = func(pass *Pass) error {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				if m := durableMarker(fd); m != markerNone {
					sinks[obj.FullName()] = m == markerSync
				}
				if fd.Body == nil {
					continue
				}
				summaries[obj.FullName()] = summarizeDurability(info, fd.Body)
				if pathMatches(pass.Pkg.Path, pkgs) {
					checks = append(checks, checkFn{pass.Pkg, fd})
				}
			}
		}
		return nil
	}
	a.Finish = func(prog *Program, report func(pos token.Pos, msg string)) error {
		// Close the summaries over the call graph.
		for changed := true; changed; {
			changed = false
			for _, s := range summaries {
				for _, callee := range s.calls {
					c, ok := summaries[callee]
					if !ok {
						continue
					}
					if c.appends && !s.appends {
						s.appends = true
						changed = true
					}
					if c.syncs && !s.syncs {
						s.syncs = true
						changed = true
					}
				}
			}
		}
		for _, cf := range checks {
			info := cf.pkg.Info
			g := BuildCFG(cf.decl.Body)
			transfer := func(ev CFGNode, facts FactSet) {
				if ev.Deferred {
					return
				}
				call, ok := ev.N.(*ast.CallExpr)
				if !ok {
					return
				}
				fn := calleeFunc(info, call)
				if fn == nil {
					return
				}
				if isSiteLogMethod(fn, "Append") {
					facts[factAppended] = true
					return
				}
				if isSiteLogMethod(fn, "Sync") {
					facts[factSynced] = true
					return
				}
				if s, ok := summaries[fn.FullName()]; ok {
					if s.appends {
						facts[factAppended] = true
					}
					if s.syncs {
						facts[factSynced] = true
					}
				}
			}
			check := func(ev CFGNode, facts FactSet) {
				if ev.Deferred {
					return
				}
				call, ok := ev.N.(*ast.CallExpr)
				if !ok {
					return
				}
				fn := calleeFunc(info, call)
				if fn == nil {
					return
				}
				needSync, isSink := sinks[fn.FullName()]
				if !isSink {
					return
				}
				if needSync && !facts[factSynced] {
					report(call.Pos(), fmt.Sprintf("call to %s is not dominated by a WAL Sync on every path (declaration is marked // repl:durable sync: the durable record must be fsynced before the transition is externalized)", fn.Name()))
				} else if !needSync && !facts[factAppended] {
					report(call.Pos(), fmt.Sprintf("call to %s is not dominated by a WAL Append on every path (declaration is marked // repl:durable: log the redo record before mutating durable state)", fn.Name()))
				}
			}
			ForwardMust(g, NewFactSet(), transfer, check)
		}
		return nil
	}
	return a
}

type durMarker int

const (
	markerNone durMarker = iota
	markerAppend
	markerSync
)

// durableMarker reads the repl:durable marker off a declaration's doc
// comment.
func durableMarker(fd *ast.FuncDecl) durMarker {
	if fd.Doc == nil {
		return markerNone
	}
	for _, c := range fd.Doc.List {
		if m := durableRe.FindStringSubmatch(c.Text); m != nil {
			if m[1] != "" {
				return markerSync
			}
			return markerAppend
		}
	}
	return markerNone
}

// isSiteLogMethod reports whether fn is the named method on wal.SiteLog
// (matching by package name so the testdata miniature counts too).
func isSiteLogMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeFrom(sig.Recv().Type(), "wal", "SiteLog")
}

// summarizeDurability collects one function body's direct WAL calls and
// outgoing calls, descending into function literal bodies.
func summarizeDurability(info *types.Info, body *ast.BlockStmt) *durSummary {
	s := &durSummary{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		switch {
		case isSiteLogMethod(fn, "Append"):
			s.appends = true
		case isSiteLogMethod(fn, "Sync"):
			s.syncs = true
		default:
			s.calls = append(s.calls, fn.FullName())
		}
		return true
	})
	return s
}
