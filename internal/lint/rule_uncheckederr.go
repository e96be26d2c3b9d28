package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// uncheckedErrorRule flags statements that drop an error returned by
// the I/O surfaces PRINS correctness depends on: block.Store methods,
// io.Reader/io.Writer-shaped Read/Write, Close, connection deadline
// setters, WriteTo, Flush, the xcode encode/decode API, and the
// replica attach calls (AttachReplica, AttachReplicaAddr,
// AttachReplicaResilient). A dropped store or wire error silently
// diverges a replica, and a dropped attach error leaves the caller
// believing a replica is there that never was; every one must be
// handled or explicitly discarded with `_ =`.
//
// Deferred and `go` calls are exempt (cleanup-path convention), as are
// receivers that cannot fail by contract: hash.Hash, *bytes.Buffer,
// *strings.Builder and *math/rand.Rand. Test files are skipped.
type uncheckedErrorRule struct{}

func (uncheckedErrorRule) Name() string { return "unchecked-error" }

func (uncheckedErrorRule) Doc() string {
	return "error results of storage and wire I/O calls must be handled or explicitly discarded"
}

func (uncheckedErrorRule) Check(p *Package, r *Reporter) {
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if what := droppedErrorCallee(p, call); what != "" {
				r.Report(call.Pos(), "unchecked-error",
					fmt.Sprintf("error from %s is dropped; handle it or discard with `_ =`", what))
			}
			return true
		})
	}
}

// droppedErrorCallee decides whether call is an error-returning call
// the rule covers, returning a human-readable callee description, or
// "" when the call is out of scope.
func droppedErrorCallee(p *Package, call *ast.CallExpr) string {
	fn := calleeFunc(p, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return ""
	}

	// Package-level functions: only the xcode encode/decode API.
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "prins/internal/xcode" {
			return "xcode." + fn.Name()
		}
		return ""
	}

	// Methods: classify by name + signature shape so every
	// implementation of the interesting interfaces is covered
	// (block.Store, io.Reader/Writer, net.Conn, io.Closer, ...).
	recv := staticReceiverType(p, call)
	if recv == nil || exemptReceiver(recv) {
		return ""
	}
	name := fn.Name()
	params, results := sig.Params().Len(), sig.Results().Len()
	interesting := false
	switch name {
	case "ReadBlock", "WriteBlock": // block.Store I/O
		interesting = params == 2 && results == 1
	case "Read", "Write": // io.Reader / io.Writer
		interesting = params == 1 && results == 2
	case "Close", "Flush": // io.Closer and friends
		interesting = params == 0 && results == 1
	case "SetDeadline", "SetReadDeadline", "SetWriteDeadline": // net.Conn
		interesting = params == 1 && results == 1
	case "WriteTo": // io.WriterTo (PDU framing)
		interesting = params == 1 && results == 2
	case "AttachReplica", "AttachReplicaAddr", "AttachReplicaResilient":
		interesting = results == 1 // the engines' and primaries' attach
	}
	if !interesting {
		return ""
	}
	qualifier := func(other *types.Package) string {
		if other == p.Types {
			return ""
		}
		return other.Name()
	}
	return fmt.Sprintf("(%s).%s", types.TypeString(recv, qualifier), name)
}

// calleeFunc resolves the called function or method, or nil for
// builtins, function literals and indirect calls.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// staticReceiverType returns the static type of the receiver
// expression in a method call, nil when the callee is not selected
// from an expression.
func staticReceiverType(p *Package, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return nil
	}
	return tv.Type
}

// exemptReceiver reports receivers whose listed methods cannot fail by
// documented contract.
func exemptReceiver(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	name := named.Obj().Name()
	if pkg == "hash" || strings.HasPrefix(pkg, "hash/") {
		return true // hash.Hash.Write never returns an error
	}
	switch pkg + "." + name {
	case "bytes.Buffer", "strings.Builder", "math/rand.Rand":
		return true
	}
	return false
}
