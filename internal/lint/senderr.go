package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewSendErr returns the senderr analyzer. The exactly-once contract
// (comm.Reliable, docs/FAULTS.md) is only as strong as its error
// accounting: a silently dropped error from a transport send, an RPC
// call, or a 2PC round means a message the sender believes delivered may
// be gone, with no retransmission, no counter, no trace event. The
// analyzer flags calls to the watched functions whose error result
// vanishes — used as a bare statement, in a go/defer, or assigned to the
// blank identifier.
//
// Watched callees:
//
//   - Send methods taking a comm.Message and returning error (every
//     Transport implementation: Mem, TCP, fault.Transport, Reliable);
//   - (*comm.RPC).Call and CallRetry;
//   - twopc.Run, whose error is the 2PC decision-delivery failure;
//   - SendFrame methods taking a telemetry.Frame and returning error
//     (the telemetry plane's connection): a silently dropped frame error
//     makes the cluster console lie — the publisher must count the
//     failure and schedule the resync;
//   - (*wal.SiteLog).Append and Sync, the write-ahead log's durability
//     points: a dropped append or fsync error means the engine
//     externalizes a transition the disk never recorded, so a crash
//     silently forgets work the rest of the cluster saw acknowledged.
//
// Sites where dropping is the contract (ARQ retransmission covers the
// loss; a lost reply is indistinguishable from a lost response message)
// carry `//lint:allow senderr <reason>`.
func NewSendErr() *Analyzer {
	a := &Analyzer{
		Name: "senderr",
		Doc:  "flags dropped errors from transport sends, RPC calls, and 2PC rounds",
	}
	a.Run = func(pass *Pass) error {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						reportDroppedSend(pass, info, call, "discarded")
					}
				case *ast.GoStmt:
					reportDroppedSend(pass, info, n.Call, "discarded by go statement")
				case *ast.DeferStmt:
					reportDroppedSend(pass, info, n.Call, "discarded by defer")
				case *ast.AssignStmt:
					checkBlankSend(pass, info, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// watchedSendCall reports whether call invokes a watched callee and
// returns a short description of it.
func watchedSendCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return "", false
	}
	switch {
	case fn.Name() == "Send" && sig.Recv() != nil && sig.Params().Len() == 1 &&
		typeFrom(sig.Params().At(0).Type(), "comm", "Message"):
		return recvTypeName(sig) + ".Send", true
	case (fn.Name() == "Call" || fn.Name() == "CallRetry") && sig.Recv() != nil &&
		typeFrom(sig.Recv().Type(), "comm", "RPC"):
		return "RPC." + fn.Name(), true
	case fn.Name() == "Run" && sig.Recv() == nil && fn.Pkg().Name() == "twopc":
		return "twopc.Run", true
	case fn.Name() == "SendFrame" && sig.Recv() != nil && sig.Params().Len() == 1 &&
		typeFrom(sig.Params().At(0).Type(), "telemetry", "Frame"):
		return recvTypeName(sig) + ".SendFrame", true
	case (fn.Name() == "Append" || fn.Name() == "Sync") && sig.Recv() != nil &&
		typeFrom(sig.Recv().Type(), "wal", "SiteLog"):
		return "SiteLog." + fn.Name(), true
	}
	return "", false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func recvTypeName(sig *types.Signature) string {
	if n := namedType(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return "Transport"
}

func reportDroppedSend(pass *Pass, info *types.Info, call *ast.CallExpr, how string) {
	name, ok := watchedSendCall(info, call)
	if !ok {
		return
	}
	why := "a lost message breaks exactly-once accounting"
	if strings.HasPrefix(name, "SiteLog.") {
		why = "an unlogged transition silently survives no crash"
	}
	pass.Reportf(call.Pos(), "error from %s %s: %s (check it, count it, or annotate the contract)", name, how, why)
}

// checkBlankSend flags watched calls whose error lands in the blank
// identifier: `_ = tr.Send(m)` and `v, _ := rpc.Call(...)`. Deliberate
// drops must carry the allow directive so the contract is stated where
// it is relied upon.
func checkBlankSend(pass *Pass, info *types.Info, as *ast.AssignStmt) {
	// Multi-value form: one call, results spread over the LHS.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		if last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
			reportDroppedSend(pass, info, call, "assigned to _")
		}
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			reportDroppedSend(pass, info, call, "assigned to _")
		}
	}
}
