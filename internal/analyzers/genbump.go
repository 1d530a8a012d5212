package analyzers

import (
	"go/ast"
	"go/token"
)

// GenBump enforces the generation-stamp invariant behind every
// cross-frame render cache (DESIGN.md "Render caching &
// invalidation"): any method on rel.Relation that writes the backing
// data — the tuple store pointer, the selection and column map that
// view it, or the computed-field table — must bump the relation's
// generation in the same body, or stale display lists and spatial
// indexes survive the mutation.
var GenBump = &Analyzer{
	Name:  "genbump",
	Doc:   "mutating methods on rel.Relation must call bumpGen(); JoinState maintained state and colStore chunk directories only mutate through declared mutators",
	Run:   runGenBump,
	Codes: []string{"GB001", "GB002", "GB003"},
}

// The receiver type and the fields whose mutation must be stamped.
const (
	genbumpRecvType = "Relation"
	genbumpCall     = "bumpGen"
)

var genbumpFields = map[string]bool{
	"computed": true,
	// cols is the tuple store: installing a new store version is the
	// data mutation.
	"cols": true,
	// sel and colMap pick a view's tuples and columns out of cols:
	// changing either changes the tuples the relation holds.
	"sel":    true,
	"colMap": true,
}

// The incremental-join surface: JoinState's maintained state — the hash
// tables, pair list, and output store that must stay consistent with
// (lLen, rLen) — may only be written by the declared delta mutators.
// Scratch buffers are reusable by design and exempt.
const genbumpJoinType = "JoinState"

var genbumpJoinFields = map[string]bool{
	"table":    true,
	"probeIdx": true,
	"pairs":    true,
	"out":      true,
	"lLen":     true,
	"rLen":     true,
}

var genbumpJoinMutators = map[string]bool{
	"Apply":          true, // incremental maintenance step
	"BuildJoinState": true, // initial construction
}

// The columnar-storage surface: colStore values are immutable versions
// shared across relations, snapshots, and the chunk cache. The chunk
// directory — slot list, row count, chunk size — may only be written by
// the declared constructors and copy-on-write mutators; an in-place
// write anywhere else silently diverges every sharer. (chunkSlot.res is
// exempt: residency is the chunk cache's own mutable state.)
const genbumpColStoreType = "colStore"

var genbumpColStoreFields = map[string]bool{
	"slots":     true,
	"rows":      true,
	"chunkRows": true,
	"schema":    true,
}

var genbumpColStoreMutators = map[string]bool{
	"newColStore": true, // construction from a ChunkSource
	"withAppend":  true, // copy-on-write append
	"withRow":     true, // copy-on-write row replacement
}

func runGenBump(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == genbumpCall {
				continue
			}
			checkRelationMethod(pass, fn)
			checkJoinStateWrites(pass, fn)
			checkColStoreWrites(pass, fn)
		}
	}
	return nil
}

// checkRelationMethod is the original GB001 rule: data writes on a
// Relation receiver must stamp the generation in the same body.
func checkRelationMethod(pass *Pass, fn *ast.FuncDecl) {
	recv := receiverIdent(fn, genbumpRecvType)
	if recv == "" {
		return
	}
	field, pos := firstDataWrite(fn.Body, recv)
	if field == "" {
		return
	}
	if callsMethod(fn.Body, recv, genbumpCall) {
		return
	}
	_ = pos
	pass.Report(fn.Name.Pos(), "GB001",
		"method %s writes %s.%s but never calls %s.%s(); generation-stamped caches will serve stale data",
		fn.Name.Name, recv, field, recv, genbumpCall)
}

// checkJoinStateWrites is GB002: maintained-state fields of JoinState
// are written only inside the declared delta mutators. Both method
// receivers and locally-constructed JoinState values count as roots,
// so the free constructor pattern (s := &JoinState{...}) is covered.
func checkJoinStateWrites(pass *Pass, fn *ast.FuncDecl) {
	if genbumpJoinMutators[fn.Name.Name] {
		return
	}
	roots := map[string]bool{}
	if recv := receiverIdent(fn, genbumpJoinType); recv != "" {
		roots[recv] = true
	}
	addLitRoots(fn.Body, genbumpJoinType, roots)
	if len(roots) == 0 {
		return
	}
	reportGuardedWrites(fn.Body, roots, genbumpJoinFields, func(t ast.Expr, root, field string) {
		pass.Report(t.Pos(), "GB002",
			"%s writes JoinState maintained state %s.%s outside the declared delta mutators (Apply, BuildJoinState); incremental join outputs will diverge",
			fn.Name.Name, root, field)
	})
}

// checkColStoreWrites is GB003: the chunk directory of a colStore —
// shared immutably across relation versions and the chunk cache — is
// written only inside the declared constructors and copy-on-write
// mutators. Same root tracking as GB002: method receivers plus idents
// bound to colStore composite literals.
func checkColStoreWrites(pass *Pass, fn *ast.FuncDecl) {
	if genbumpColStoreMutators[fn.Name.Name] {
		return
	}
	roots := map[string]bool{}
	if recv := receiverIdent(fn, genbumpColStoreType); recv != "" {
		roots[recv] = true
	}
	addLitRoots(fn.Body, genbumpColStoreType, roots)
	if len(roots) == 0 {
		return
	}
	reportGuardedWrites(fn.Body, roots, genbumpColStoreFields, func(t ast.Expr, root, field string) {
		pass.Report(t.Pos(), "GB003",
			"%s writes colStore chunk directory %s.%s outside the declared chunk mutators (newColStore, withAppend, withRow); shared store versions will diverge",
			fn.Name.Name, root, field)
	})
}

// addLitRoots tracks idents bound to `typ{...}` or `&typ{...}`
// composite literals as guarded roots.
func addLitRoots(body *ast.BlockStmt, typ string, roots map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if id, ok := as.Lhs[i].(*ast.Ident); ok && isTypeLit(rhs, typ) {
				roots[id.Name] = true
			}
		}
		return true
	})
}

// reportGuardedWrites invokes report for every assignment or inc/dec
// whose target is root.field with root tracked and field guarded.
func reportGuardedWrites(body *ast.BlockStmt, roots, fields map[string]bool, report func(t ast.Expr, root, field string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch st := n.(type) {
		case *ast.AssignStmt:
			targets = st.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{st.X}
		default:
			return true
		}
		for _, t := range targets {
			root, field := guardedFieldTarget(t, roots, fields)
			if field != "" {
				report(t, root, field)
			}
		}
		return true
	})
}

// isTypeLit matches typ{...} and &typ{...}.
func isTypeLit(e ast.Expr, typ string) bool {
	if un, ok := e.(*ast.UnaryExpr); ok {
		e = un.X
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	id, ok := cl.Type.(*ast.Ident)
	return ok && id.Name == typ
}

// guardedFieldTarget unwraps an assignment target to root.field where
// root is a tracked variable and field is guarded state.
func guardedFieldTarget(e ast.Expr, roots, fields map[string]bool) (string, string) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || !fields[sel.Sel.Name] {
				return "", ""
			}
			if id, ok := sel.X.(*ast.Ident); ok && roots[id.Name] {
				return id.Name, sel.Sel.Name
			}
			return "", ""
		}
	}
}

// receiverIdent returns the receiver variable name when fn is a method
// on typ or *typ with a usable (non-blank) receiver, else "".
func receiverIdent(fn *ast.FuncDecl, typ string) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	rf := fn.Recv.List[0]
	t := rf.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok || id.Name != typ {
		return ""
	}
	if len(rf.Names) != 1 || rf.Names[0].Name == "_" {
		return ""
	}
	return rf.Names[0].Name
}

// firstDataWrite reports the first stamped field the body assigns
// through the receiver — plain assignment, indexed assignment, or
// inc/dec — and the position of the write.
func firstDataWrite(body *ast.BlockStmt, recv string) (string, token.Pos) {
	var field string
	var pos token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if field != "" {
			return false
		}
		var targets []ast.Expr
		switch st := n.(type) {
		case *ast.AssignStmt:
			targets = st.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{st.X}
		default:
			return true
		}
		for _, t := range targets {
			if name := stampedFieldTarget(t, recv); name != "" {
				field, pos = name, t.Pos()
				return false
			}
		}
		return true
	})
	return field, pos
}

// stampedFieldTarget unwraps an assignment target down to a selector on
// the receiver and returns the field name when it is one of the
// stamped fields. `r.cols`, `r.computed[i]`, and parenthesised forms
// all count.
func stampedFieldTarget(e ast.Expr, recv string) string {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || !genbumpFields[sel.Sel.Name] {
				return ""
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
				return sel.Sel.Name
			}
			return ""
		}
	}
}

// callsMethod reports whether body contains a call recv.name(...).
func callsMethod(body *ast.BlockStmt, recv, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
			found = true
			return false
		}
		return true
	})
	return found
}
