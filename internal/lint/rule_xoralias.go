package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// xorAliasRule protects the XOR parity kernels in two ways.
//
// First, calls to the forward/backward kernels must not pass the same
// expression as destination and source: ForwardInto(p, new, old) with
// p aliasing new destroys the new data the caller still has to write
// locally, and BackwardInto(dst, p', old) with dst aliasing old makes
// the recovered block depend on kernel traversal order. (parity.XOR
// itself documents that dst may alias an operand, exactly or not at
// all; the higher-level kernels must not be called that way.)
//
// Second, functions inside a parity package must never retain a caller
// buffer: storing a []byte parameter into a struct field or package
// variable lets a later block write mutate a parity the engine already
// queued, corrupting the replica.
type xorAliasRule struct{}

func (xorAliasRule) Name() string { return "xor-alias" }

func (xorAliasRule) Doc() string {
	return "parity kernel destinations must not alias sources, and parity code must not retain caller buffers"
}

// kernelArgs maps each checked parity kernel to its destination and
// source argument positions.
var kernelArgs = map[string]struct {
	dst  int
	srcs []int
}{
	"ForwardInto":  {0, []int{1, 2}},
	"BackwardInto": {0, []int{1, 2}},
	"XORInPlace":   {0, []int{1}},
}

func (xorAliasRule) Check(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "prins/internal/parity" {
				return true
			}
			spec, ok := kernelArgs[fn.Name()]
			if !ok || len(call.Args) <= spec.dst {
				return true
			}
			dst := types.ExprString(call.Args[spec.dst])
			for _, i := range spec.srcs {
				if i < len(call.Args) && types.ExprString(call.Args[i]) == dst {
					r.Report(call.Pos(), "xor-alias",
						fmt.Sprintf("parity.%s destination %s aliases its source; XOR parity application is not idempotent",
							fn.Name(), dst))
				}
			}
			return true
		})
	}

	if p.Name == "parity" {
		checkBufferRetention(p, r)
	}
}

// checkBufferRetention flags assignments that store a []byte parameter
// of the enclosing function into a struct field or package-level
// variable.
func checkBufferRetention(p *Package, r *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := byteSliceParams(p, fd)
			if len(params) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				assign, ok := n.(*ast.AssignStmt)
				if !ok || len(assign.Lhs) != len(assign.Rhs) {
					return true
				}
				for i, rhs := range assign.Rhs {
					id, ok := ast.Unparen(rhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Uses[id]
					if obj == nil || !params[obj] {
						continue
					}
					if retainingLHS(p, assign.Lhs[i]) {
						r.Report(assign.Pos(), "xor-alias",
							fmt.Sprintf("parity function retains caller buffer %s; copy it instead of storing the slice", id.Name))
					}
				}
				return true
			})
		}
	}
}

// byteSliceParams collects the objects of fd's []byte parameters.
func byteSliceParams(p *Package, fd *ast.FuncDecl) map[types.Object]bool {
	params := make(map[types.Object]bool)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if slice, ok := obj.Type().Underlying().(*types.Slice); ok {
				if basic, ok := slice.Elem().Underlying().(*types.Basic); ok && basic.Kind() == types.Byte {
					params[obj] = true
				}
			}
		}
	}
	return params
}

// retainingLHS reports whether an assignment target outlives the call:
// a struct field (x.f) or a package-level variable.
func retainingLHS(p *Package, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel, ok := p.Info.Selections[l]
		return ok && sel.Kind() == types.FieldVal
	case *ast.Ident:
		obj := p.Info.Uses[l]
		if obj == nil {
			obj = p.Info.Defs[l]
		}
		return obj != nil && obj.Parent() == p.Types.Scope()
	}
	return false
}
