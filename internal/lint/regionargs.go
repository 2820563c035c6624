// regionargs: argument discipline at region-operation call sites. The
// gf kernels compute dst[i] ^= a*src[i] in word-sized strides and are
// memory-unsafe by construction on aliased or misaligned slices: an
// overlapping dst/src silently corrupts data (the asm kernels read
// ahead of their writes), and a region length that is not a multiple of
// the field's word size would split a word across the boundary. The
// analyzer rejects what it can prove at the call site: syntactically
// aliasing dst/src expressions, constant-length slice arguments whose
// dst and src lengths differ, and — where the receiver's field type is
// statically concrete — constant lengths that are not a multiple of
// that field's word size.

package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// RegionArgs is the region-operation call-site analyzer.
var RegionArgs = &Analyzer{
	Name: "regionargs",
	Doc:  "gf region operations must get non-aliasing, length-matched, word-aligned dst/src arguments",
	Run:  runRegionArgs,
}

// regionOps maps gf method names to the indices of their dst and src
// arguments. lists marks ops whose dst and src are both region lists:
// their lengths are region counts, so only aliasing between the two
// lists is checkable.
var regionOps = map[string]struct {
	dst, src int
	lists    bool
}{
	"MultXORs":  {dst: 0, src: 1},
	"MulRegion": {dst: 0, src: 1},
	"MultXOR":   {dst: 0, src: 1},              // gf.Multiplier
	"Apply":     {dst: 0, src: 1, lists: true}, // gf.RowBlock: out, in
}

// wordBytesOf maps a concrete gf field implementation (by type name)
// to its word size in bytes. Fixture stubs use the same names.
var wordBytesOf = map[string]int{"field8": 1, "field16": 2, "field32": 4}

func runRegionArgs(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkRegionCall(pass, call)
			return true
		})
	}
}

// isGFMethod reports whether the call is a method from a package named
// gf (the real internal/gf or a fixture stub), returning the method
// name.
func isGFMethod(pass *Pass, call *ast.CallExpr) (string, *ast.SelectorExpr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "gf" {
		return "", nil, false
	}
	if _, ok := regionOps[fn.Name()]; !ok {
		return "", nil, false
	}
	return fn.Name(), sel, true
}

func checkRegionCall(pass *Pass, call *ast.CallExpr) {
	name, sel, ok := isGFMethod(pass, call)
	if !ok {
		return
	}
	op := regionOps[name]
	if op.dst >= len(call.Args) || op.src >= len(call.Args) {
		return
	}
	dst, src := call.Args[op.dst], call.Args[op.src]
	if op.lists {
		if exprEqual(dst, src) {
			pass.Reportf(src.Pos(), "%s output and source region lists alias (%s); no output row may alias a source", name, exprString(pass, dst))
		}
		return
	}

	checkAliasing(pass, name, dst, src)
	checkConstLengths(pass, name, dst, src)
	if wb, ok := receiverWordBytes(pass, sel); ok {
		for _, arg := range []ast.Expr{dst, src} {
			if n, known := constSliceLen(pass, arg); known && n%int64(wb) != 0 {
				pass.Reportf(arg.Pos(), "%s region length %d is not a multiple of the field word size (%d bytes); derive lengths from Field.WordBytes", name, n, wb)
			}
		}
	}
}

// checkAliasing flags dst/src arguments that are provably the same
// memory: syntactically identical expressions, or slice expressions of
// the same base with overlapping constant ranges.
func checkAliasing(pass *Pass, name string, dst, src ast.Expr) {
	if exprKey(dst) == "nil" || exprKey(src) == "nil" {
		return // nil regions are empty: every op is a no-op on them
	}
	ds, dOK := ast.Unparen(dst).(*ast.SliceExpr)
	ss, sOK := ast.Unparen(src).(*ast.SliceExpr)
	if dOK && sOK && exprEqual(ds.X, ss.X) {
		dLo, dHi, dConst := constSliceBounds(pass, ds)
		sLo, sHi, sConst := constSliceBounds(pass, ss)
		if dConst && sConst && (dLo >= sHi || sLo >= dHi) {
			return // disjoint constant ranges of the same base: fine
		}
		pass.Reportf(src.Pos(), "%s dst and src may alias (both slice %s); region operations require non-overlapping regions", name, exprString(pass, ds.X))
		return
	}
	if exprEqual(dst, src) {
		pass.Reportf(src.Pos(), "%s dst and src alias (%s); region operations require non-overlapping regions", name, exprString(pass, dst))
	}
}

// checkConstLengths flags dst/src pairs whose lengths are both known
// constants and differ.
func checkConstLengths(pass *Pass, name string, dst, src ast.Expr) {
	dn, dOK := constSliceLen(pass, dst)
	sn, sOK := constSliceLen(pass, src)
	if dOK && sOK && dn != sn {
		pass.Reportf(src.Pos(), "%s dst length %d != src length %d; regions must be equal-length", name, dn, sn)
	}
}

// receiverWordBytes resolves the static word size of the method
// receiver when its concrete field type is known.
func receiverWordBytes(pass *Pass, sel *ast.SelectorExpr) (int, bool) {
	tv, ok := pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return 0, false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0, false
	}
	wb, ok := wordBytesOf[named.Obj().Name()]
	return wb, ok
}

// constSliceLen returns the length of arg when it is provable at the
// call site: a slice expression with constant bounds, or a make with a
// constant length.
func constSliceLen(pass *Pass, arg ast.Expr) (int64, bool) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.SliceExpr:
		lo, hi, ok := constSliceBounds(pass, e)
		if !ok {
			return 0, false
		}
		return hi - lo, true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(e.Args) >= 2 {
				if n, ok := constInt(pass, e.Args[1]); ok {
					return n, true
				}
			}
		}
	}
	return 0, false
}

// constSliceBounds returns the constant bounds of a slice expression
// (lo defaults to 0; an open high bound is never constant).
func constSliceBounds(pass *Pass, e *ast.SliceExpr) (lo, hi int64, ok bool) {
	if e.Low == nil {
		lo = 0
	} else if lo, ok = constInt(pass, e.Low); !ok {
		return 0, 0, false
	}
	if e.High == nil {
		return 0, 0, false
	}
	hi, ok = constInt(pass, e.High)
	return lo, hi, ok
}

func constInt(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

// exprEqual reports whether two expressions are syntactically
// identical (same structure and identifiers) — the conservative
// "provably the same memory" test.
func exprEqual(a, b ast.Expr) bool {
	return exprKey(a) != "" && exprKey(a) == exprKey(b)
}

// exprKey renders a restricted expression grammar (identifiers,
// selectors, index expressions with literal or identifier indices) to a
// comparable string; anything more dynamic renders as "" (not
// comparable, never flagged).
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := exprKey(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.IndexExpr:
		x, i := exprKey(e.X), exprKey(e.Index)
		if x == "" || i == "" {
			return ""
		}
		return x + "[" + i + "]"
	case *ast.BasicLit:
		return e.Value
	}
	return ""
}

func exprString(pass *Pass, e ast.Expr) string {
	if k := exprKey(e); k != "" {
		return k
	}
	return "expression"
}
