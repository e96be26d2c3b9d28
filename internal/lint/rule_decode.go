package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// unboundedDecodeRule audits the wire-facing decode paths (the iscsi
// and xcode packages): indexing or slicing a []byte parameter, or
// reading it through binary.BigEndian/LittleEndian fixed-width
// accessors, must be dominated by a len() check of that buffer.
// Without one, a truncated or hostile frame turns into a bounds panic
// in the replication path instead of a protocol error.
//
// The same goes for varints: the length n that binary.Uvarint or
// binary.Varint returns is 0 for a truncated varint and negative for
// one that overflows, so a decode path must test it (n <= 0) before n
// indexes or slices a buffer — unchecked, a short frame misparses or
// panics.
//
// So do the values a decode path reads out of a range coder (the
// squeeze stream's match lengths, distances and the counts they make):
// a coded value — one assigned from a call to a method of a type named
// *Decoder — must be compared with something before it indexes or
// slices a buffer or goes into a call, since a hostile segment codes
// any value its decoder's trees and direct bits can hold.
//
// The dominance test is a source-order approximation: some expression
// mentioning len(buf), or testing n, must appear in the function before
// the access. That matches the codebase's guard idioms (early
// short-buffer returns, len-bounded loop conditions) while staying a
// from-scratch AST pass; annotate the rare intentional exception with
// lint:ignore.
type unboundedDecodeRule struct{}

func (unboundedDecodeRule) Name() string { return "unbounded-decode" }

func (unboundedDecodeRule) Doc() string {
	return "wire-buffer decode paths must length-check the buffer before fixed-offset access, and test a varint's length before using it"
}

// decodeScopePkgs are the package names holding wire decoders. The
// journal package qualifies too: its slot header is parsed from raw
// bytes read back off disk, which a crash can truncate or tear just
// like a hostile frame. So does dedupe: its index snapshots are
// persistence records decoded from whatever bytes a restart hands
// back, and the by-ref wire path trusts the index they rebuild.
var decodeScopePkgs = map[string]bool{
	"iscsi": true, "iscsi_test": true,
	"xcode": true, "xcode_test": true,
	"journal": true, "journal_test": true,
	"dedupe": true, "dedupe_test": true,
}

// decodeNameFragments mark a function as a decode path. The frame
// walkers count too: the ZRL walker and the mask decoder that lands a
// frame on a pre-image (xcode.MaskInto) read wire bytes like any parser.
// So do the squeeze stream's readers, which inflate a segment and
// rebuild its plaintext from the repeats it lists
// (xcode.StreamInflater's Inflate and Rebuild).
var decodeNameFragments = []string{"decode", "parse", "split", "unmarshal", "readpdu", "mask", "walk", "inflate", "rebuild"}

func isDecodeFunc(name string) bool {
	lower := strings.ToLower(name)
	for _, frag := range decodeNameFragments {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}

func (unboundedDecodeRule) Check(p *Package, r *Reporter) {
	if !decodeScopePkgs[p.Name] {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isDecodeFunc(fd.Name.Name) {
				continue
			}
			if params := byteSliceParams(p, fd); len(params) > 0 {
				checkDecodeBody(p, r, fd, params)
			}
			// A decode path with no buffer of its own (a length or a
			// distance read off the coder) still holds coded values.
			checkCodedValues(p, r, fd.Body)
		}
	}
}

func checkDecodeBody(p *Package, r *Reporter, fd *ast.FuncDecl, params map[types.Object]bool) {
	// Pass 1: positions where len(param) is consulted, and where a
	// varint length is tested.
	counts := varintLengths(p, fd.Body)
	guards := make(map[types.Object][]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			if obj := testedLength(p, counts, b); obj != nil {
				guards[obj] = append(guards[obj], b.Pos())
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "len" {
			return true
		}
		if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); !isBuiltin {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && params[obj] {
				guards[obj] = append(guards[obj], call.Pos())
			}
		}
		return true
	})

	guardedBefore := func(obj types.Object, pos token.Pos) bool {
		for _, g := range guards[obj] {
			if g < pos {
				return true
			}
		}
		return false
	}
	flag := func(obj types.Object, pos token.Pos, how string) {
		if guardedBefore(obj, pos) {
			return
		}
		r.Report(pos, "unbounded-decode",
			fmt.Sprintf("%s of wire buffer %s without a preceding len(%s) guard; a short frame panics here",
				how, obj.Name(), obj.Name()))
	}

	// flagLength reports an index or slice at pos whose bounds ix use a
	// varint length not yet tested.
	flagLength := func(pos token.Pos, how string, ix ...ast.Expr) {
		for _, x := range ix {
			if obj := untestedLength(p, counts, x, guardedBefore); obj != nil {
				r.Report(pos, "unbounded-decode",
					fmt.Sprintf("%s by varint length %s without a preceding %s <= 0 test; a truncated or overflowing varint misparses or panics here",
						how, obj.Name(), obj.Name()))
				return
			}
		}
	}

	// Pass 2: raw accesses to the parameters, and varint lengths used as
	// bounds.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IndexExpr:
			if obj := paramObj(p, params, e.X); obj != nil {
				flag(obj, e.Pos(), "index")
			}
			flagLength(e.Pos(), "index", e.Index)
		case *ast.SliceExpr:
			if obj := paramObj(p, params, e.X); obj != nil {
				flag(obj, e.Pos(), "slice")
			}
			flagLength(e.Pos(), "slice", e.Low, e.High, e.Max)
		case *ast.CallExpr:
			// binary.BigEndian.UintNN(param) / PutUintNN-style reads.
			if isEndianAccessor(p, e) {
				for _, arg := range e.Args {
					if obj := paramObj(p, params, arg); obj != nil {
						flag(obj, e.Pos(), "fixed-width read")
					}
				}
			}
		}
		return true
	})

	// Pass 3: values read out of a range coder.
}

// checkCodedValues reports a value read out of a range coder that
// indexes or slices a buffer, or goes into a call, before any comparison
// mentions it.
func checkCodedValues(p *Package, r *Reporter, body *ast.BlockStmt) {
	coded := codedValues(p, body)
	if len(coded) == 0 {
		return
	}
	compared := make(map[types.Object][]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && isComparison(b.Op) {
			for _, obj := range mentions(p, coded, b) {
				compared[obj] = append(compared[obj], b.Pos())
			}
		}
		return true
	})
	flag := func(how string, xs ...ast.Expr) {
		for _, x := range xs {
			if x == nil {
				continue
			}
			ast.Inspect(x, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || !coded[p.Info.Uses[id]] {
					return true
				}
				obj := p.Info.Uses[id]
				for _, c := range compared[obj] {
					if c < id.Pos() {
						return true
					}
				}
				r.Report(id.Pos(), "unbounded-decode",
					fmt.Sprintf("%s by coded value %s, read out of a range coder, before any comparison bounds it; a hostile segment codes any value here",
						how, obj.Name()))
				return true
			})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IndexExpr:
			flag("index", e.Index)
		case *ast.SliceExpr:
			flag("slice", e.Low, e.High, e.Max)
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() {
				return true // a conversion
			}
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
					return true
				}
			}
			flag("call argument", e.Args...)
		}
		return true
	})
}

// codedValues returns the objects body assigns the result of a call to
// a method of a *Decoder type to (n := d.decodeLen(...)), converted or
// not (n := int(d.tree(...))).
func codedValues(p *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if ok && len(call.Args) == 1 && p.Info.Types[call.Fun].IsType() {
			call, ok = ast.Unparen(call.Args[0]).(*ast.CallExpr)
		}
		if !ok || !isDecoderMethod(p, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// isDecoderMethod reports a call to a method of a named type whose name
// ends in Decoder.
func isDecoderMethod(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && strings.HasSuffix(named.Obj().Name(), "Decoder")
}

// isComparison reports the comparison operators.
func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// mentions returns the objects of set that e's identifiers use.
func mentions(p *Package, set map[types.Object]bool, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[p.Info.Uses[id]] {
			out = append(out, p.Info.Uses[id])
		}
		return true
	})
	return out
}

// paramObj resolves e to one of the tracked parameters, or nil.
func paramObj(p *Package, params map[types.Object]bool, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.Info.Uses[id]
	if obj != nil && params[obj] {
		return obj
	}
	return nil
}

// isEndianAccessor reports calls to fixed-width methods of
// encoding/binary's ByteOrder values (binary.BigEndian.Uint32, ...).
func isEndianAccessor(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Uint16", "Uint32", "Uint64":
	default:
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary"
}

// varintLengths returns the objects body assigns the length result of
// binary.Uvarint or binary.Varint to (n in v, n := binary.Uvarint(b)).
func varintLengths(p *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isVarintCall(p, call) {
			return true
		}
		id, ok := as.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// isVarintCall reports calls to encoding/binary's Uvarint and Varint.
func isVarintCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Uvarint" && sel.Sel.Name != "Varint") {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary"
}

// testedLength returns the varint length b tests for positivity — n <=
// 0, n < 1, n > 0 or n >= 1, either way round, which rules out both a
// truncated (0) and an overflowing (negative) varint — or nil.
func testedLength(p *Package, counts map[types.Object]bool, b *ast.BinaryExpr) types.Object {
	x, y, op := b.X, b.Y, b.Op
	obj := paramObj(p, counts, x)
	if obj == nil {
		obj = paramObj(p, counts, y)
		x, y = y, x
		switch op {
		case token.LSS:
			op = token.GTR
		case token.GTR:
			op = token.LSS
		case token.LEQ:
			op = token.GEQ
		case token.GEQ:
			op = token.LEQ
		}
	}
	tv, ok := p.Info.Types[y]
	if obj == nil || !ok || tv.Value == nil {
		return nil
	}
	c, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return nil
	}
	switch {
	case op == token.LEQ && c == 0, op == token.LSS && c == 1,
		op == token.GTR && c == 0, op == token.GEQ && c == 1:
		return obj
	}
	return nil
}

// untestedLength returns a varint length x mentions at a point no test
// of it precedes, or nil.
func untestedLength(p *Package, counts map[types.Object]bool, x ast.Expr, tested func(types.Object, token.Pos) bool) types.Object {
	if x == nil {
		return nil
	}
	var found types.Object
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && found == nil {
			if obj := p.Info.Uses[id]; obj != nil && counts[obj] && !tested(obj, id.Pos()) {
				found = obj
			}
		}
		return found == nil
	})
	return found
}
