// Package maporder defines an analyzer that flags range statements over
// maps whose bodies have order-sensitive effects. Go randomizes map
// iteration order per process, so any observable sequence built inside
// such a loop — a slice of keys, an emitted trace event, an encoded
// byte stream, a floating-point running sum — varies run to run, which
// breaks the repo's byte-identity contract (fleet shard merges,
// checkpoint/resume, churn replay all diff outputs byte for byte).
//
// This is the exact class of the PR 4 rebuildSMDeps bug: walking the
// placement cache in map order filled the per-owner index slices
// process-randomly, which reordered dirty-queue flushes and wobbled the
// sampled reputation sum in its last ulps. The fixture under
// testdata/src/rebuildsmdeps reproduces that shape.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags order-sensitive effects inside range-over-map bodies.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: `flag range-over-map loops with order-sensitive effects

A range over a map whose body appends to state declared outside the
loop, emits telemetry, trace or metrics events, writes to an encoder or
outer writer, sends on a channel, or accumulates a floating-point sum
makes the program's observable output depend on Go's randomized map
iteration order. Collect the keys into a slice and sort it first; the
loop is accepted when the appended-to slice is passed to a sort call
later in the same block. Per-key effects (writing m2[k] for the loop key
k, integer counters) are order-independent and not flagged.`,
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if rs, ok := n.(*ast.RangeStmt); ok && isMapType(pass.TypesInfo.TypeOf(rs.X)) {
				checkMapRange(pass, rs, stack)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil, nil
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange scans the body of one range-over-map for effects whose
// order the map walk determines. stack holds the ancestors of rs,
// innermost last.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	keyObj := loopVarObject(pass, rs.Key)
	following := followingStmts(rs, stack)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, rs, n, keyObj, following)
		case *ast.CallExpr:
			checkCall(pass, rs, n)
		case *ast.SendStmt:
			pass.Reportf(rs.For, "range over map sends on a channel; receivers observe map iteration order — sort the keys first")
			return false
		}
		return true
	})
}

// checkAssign flags appends to outer state and floating-point
// accumulation into outer variables.
func checkAssign(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt, keyObj types.Object, following []ast.Stmt) {
	// Compound floating-point accumulation: x += v reorders a float sum.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		if isFloat(pass.TypesInfo.TypeOf(lhs)) && declaredOutside(pass, lhs, rs) {
			pass.Reportf(rs.For, "range over map accumulates the floating-point value %s; the sum's last ulps depend on map iteration order — sort the keys first", types.ExprString(lhs))
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) {
			continue
		}
		checkAppend(pass, rs, as.Lhs[i], keyObj, following)
	}
}

// checkAppend decides whether appending to lhs inside the map range is
// order-safe.
func checkAppend(pass *analysis.Pass, rs *ast.RangeStmt, lhs ast.Expr, keyObj types.Object, following []ast.Stmt) {
	lhs = ast.Unparen(lhs)
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		// m2[k] = append(m2[k], …) for the loop key k touches a
		// distinct bucket per iteration: order-independent.
		if keyObj != nil && exprIsObject(pass, ix.Index, keyObj) {
			return
		}
		if declaredOutside(pass, ix, rs) {
			pass.Reportf(rs.For, "range over map appends to %s keyed by something other than the loop key; each bucket's element order follows map iteration order — sort the keys first (the rebuildSMDeps bug class)", types.ExprString(lhs))
		}
		return
	}
	if !declaredOutside(pass, lhs, rs) {
		return
	}
	if sortedAfter(pass, lhs, following) {
		return
	}
	pass.Reportf(rs.For, "range over map appends to %s, whose element order follows map iteration order; sort the keys first, or sort %s before it is used", types.ExprString(lhs), types.ExprString(lhs))
}

// checkCall flags calls inside the body that make iteration order
// observable: trace/metrics emission, encoding, and writes to outer
// writers or process streams.
func checkCall(pass *analysis.Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Package-level calls: fmt.Print*/Fprint* write an ordered stream.
	if pkg := packageOf(pass, sel.X); pkg != nil {
		if pkg.Imported().Path() == "fmt" {
			name := sel.Sel.Name
			switch {
			case strings.HasPrefix(name, "Print"):
				pass.Reportf(rs.For, "range over map calls fmt.%s; output line order follows map iteration order — sort the keys first", name)
			case strings.HasPrefix(name, "Fprint"):
				if len(call.Args) > 0 && declaredOutside(pass, call.Args[0], rs) {
					pass.Reportf(rs.For, "range over map writes to %s via fmt.%s; output order follows map iteration order — sort the keys first", types.ExprString(call.Args[0]), name)
				}
			}
		}
		return
	}
	// Method calls. Receiver must be rooted outside the loop: a writer
	// or recorder created per iteration is order-local.
	if !declaredOutside(pass, sel.X, rs) {
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	name := sel.Sel.Name
	switch {
	case isEmitterType(recv) && emitterMethods[name]:
		pass.Reportf(rs.For, "range over map calls %s.%s; telemetry/trace/metrics event order follows map iteration order — sort the keys first", typeShort(recv), name)
	case name == "Encode" || strings.HasPrefix(name, "Write"):
		pass.Reportf(rs.For, "range over map calls %s on %s; encoded output order follows map iteration order — sort the keys first", name, types.ExprString(sel.X))
	}
}

// emitterMethods are the mutating entry points of the telemetry, trace
// and metrics packages — the bus and its sinks publish through Event and
// Sample; their read-only accessors are order-safe.
var emitterMethods = map[string]bool{
	"Event": true, "Sample": true, "Append": true, "Observe": true,
	"Inc": true, "Add": true, "Merge": true,
}

// isEmitterType reports whether t belongs to the telemetry, trace or
// metrics package (possibly behind a pointer).
func isEmitterType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return strings.HasSuffix(path, "internal/telemetry") ||
		strings.HasSuffix(path, "internal/trace") ||
		strings.HasSuffix(path, "internal/metrics")
}

func typeShort(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// sortedAfter reports whether a later statement in the enclosing block
// passes lhs to a sorting call — the canonical collect-then-sort
// pattern. A call qualifies when it is in package sort or slices, or its
// function name contains "sort" (local helpers like sortIDs).
func sortedAfter(pass *analysis.Pass, lhs ast.Expr, following []ast.Stmt) bool {
	want := types.ExprString(ast.Unparen(lhs))
	found := false
	for _, st := range following {
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !isSortCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if types.ExprString(ast.Unparen(arg)) == want {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	case *ast.SelectorExpr:
		if pkg := packageOf(pass, fun.X); pkg != nil {
			p := pkg.Imported().Path()
			if p == "sort" || p == "slices" {
				return true
			}
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	}
	return false
}

// followingStmts returns the statements after rs in its innermost
// enclosing statement list.
func followingStmts(rs *ast.RangeStmt, stack []ast.Node) []ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch n := stack[i].(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			continue
		}
		for j, st := range list {
			if st == ast.Stmt(rs) {
				return list[j+1:]
			}
		}
	}
	return nil
}

// loopVarObject resolves the object of a range loop variable (nil for
// "_" or absent keys).
func loopVarObject(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// exprIsObject reports whether e is an identifier denoting obj.
func exprIsObject(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj
}

// declaredOutside reports whether the root identifier of e (unwrapping
// selectors, indexing, dereferences and calls' receivers) denotes a
// variable declared outside the range statement. Expressions with no
// resolvable root (literals, calls) count as outside: conservative for
// writers obtained through accessors.
func declaredOutside(pass *analysis.Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			if obj == nil {
				return true
			}
			return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return true
		}
	}
}

// packageOf resolves e to the package name it denotes, if any.
func packageOf(pass *analysis.Pass, e ast.Expr) *types.PkgName {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := pass.TypesInfo.Uses[id].(*types.PkgName)
	return pn
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
