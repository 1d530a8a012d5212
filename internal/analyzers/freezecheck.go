package analyzers

import (
	"go/ast"
	"go/types"
)

// FreezeCheck enforces the copy-on-write freeze invariant behind
// snapshot isolation (DESIGN §13): every relation reached through a
// snapshot read — db.Snap.Table, db.Database.Table, the server's
// snapSource, a dataflow TableSource, Event.Delta, or a Tuple(i) view
// — is a frozen version shared with concurrent readers. Mutating it
// corrupts renders that are in flight on other goroutines. The only
// legal write path is an explicit unfreeze: CowClone (or derive) before
// the first mutator call.
//
// The pass is type-aware and intraprocedural: it seeds "frozen" at the
// source expressions above, flows the mark through assignments and
// field/index paths, and reports FZ001 when a relation mutator from
// the genbump family is invoked on a frozen value and FZ002 when an
// assignment writes through a frozen path. Passing a frozen value to
// another function is not tracked (one body at a time); parameters
// are never frozen, which keeps rel's own mutators and db's
// CowClone-then-swap write path clean.
// The columnar storage layer adds a second shared surface: Chunk values
// handed out by ChunkSource.ReadChunk (and cached by the global chunk
// cache) are published immutably — every relation version opened over
// the same segment, and every concurrent scan, may hold the same *Chunk.
// FZ003 flags writes through a ReadChunk result; replacement chunks are
// built fresh (chunkBuilder) and swapped in via the colStore CoW
// mutators instead.
var FreezeCheck = &Analyzer{
	Name:       "freezecheck",
	Doc:        "no rel mutator may run on a frozen (snapshot-read) relation without CowClone; chunks read from a ChunkSource are immutable",
	Run:        runFreezeCheck,
	NeedsTypes: true,
	Codes:      []string{"FZ001", "FZ002", "FZ003"},
}

// relationMutators is the genbump mutator family: every method that
// writes a Relation's backing data or generation stamp.
var relationMutators = map[string]bool{
	"Append":         true,
	"MustAppend":     true,
	"Update":         true,
	"AddComputed":    true,
	"SetComputed":    true,
	"RemoveComputed": true,
	"bumpGen":        true,
	"setProv":        true,
}

// frozenCatalogOwners are type names whose `tables` map holds frozen
// relation versions: indexing the catalog yields a frozen value (the
// map itself may be rewritten — that is how commits swap versions).
var frozenCatalogOwners = map[string]bool{
	"Database": true,
	"Snap":     true,
}

type freezeChecker struct {
	pass *Pass
	info *types.Info
	// frozen marks local variables currently bound to a frozen value.
	frozen map[types.Object]bool
	// sharedChunk marks local variables bound to a ReadChunk result:
	// a cache-published chunk shared across readers.
	sharedChunk map[types.Object]bool
}

func runFreezeCheck(pass *Pass) error {
	if pass.Types == nil || pass.Types.Info == nil {
		return nil // type loading failed entirely; degrade silently
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fc := &freezeChecker{
				pass:        pass,
				info:        pass.Types.Info,
				frozen:      map[types.Object]bool{},
				sharedChunk: map[types.Object]bool{},
			}
			fc.checkBody(fn.Body)
		}
	}
	return nil
}

// checkBody walks one function (or function literal) body in source
// order, which approximates flow well enough for an intraprocedural
// taint: a variable is marked frozen by the assignment that binds it
// and cleared by a later rebinding to a non-frozen value.
func (fc *freezeChecker) checkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures share the enclosing frozen set: they capture the
			// same variables.
			fc.checkBody(n.Body)
			return false
		case *ast.AssignStmt:
			fc.assign(n)
		case *ast.IncDecStmt:
			fc.checkWrite(n.X)
		case *ast.CallExpr:
			fc.checkCall(n)
		}
		return true
	})
}

func (fc *freezeChecker) assign(st *ast.AssignStmt) {
	// Writes through frozen paths first (LHS that are not plain idents).
	for _, lhs := range st.Lhs {
		fc.checkWrite(lhs)
	}
	// Then propagate the frozen mark into rebound idents.
	switch {
	case len(st.Lhs) == len(st.Rhs):
		for i, lhs := range st.Lhs {
			fc.bind(lhs, fc.isFrozen(st.Rhs[i]))
			fc.bindChunk(lhs, fc.isSharedChunk(st.Rhs[i]))
		}
	case len(st.Rhs) == 1:
		// t, err := snap.Table(x): the frozen mark lands on the first
		// result — every frozen source with multiple results returns
		// the relation first. ReadChunk follows the same convention:
		// the chunk is the first result.
		fr := fc.isFrozen(st.Rhs[0])
		ck := fc.isSharedChunk(st.Rhs[0])
		for i, lhs := range st.Lhs {
			fc.bind(lhs, fr && i == 0)
			fc.bindChunk(lhs, ck && i == 0)
		}
	}
}

func (fc *freezeChecker) bind(lhs ast.Expr, frozen bool) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := fc.info.Defs[id]
	if obj == nil {
		obj = fc.info.Uses[id]
	}
	if obj == nil {
		return
	}
	if frozen {
		fc.frozen[obj] = true
	} else {
		delete(fc.frozen, obj)
	}
}

// bindChunk mirrors bind for the shared-chunk taint.
func (fc *freezeChecker) bindChunk(lhs ast.Expr, shared bool) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := fc.info.Defs[id]
	if obj == nil {
		obj = fc.info.Uses[id]
	}
	if obj == nil {
		return
	}
	if shared {
		fc.sharedChunk[obj] = true
	} else {
		delete(fc.sharedChunk, obj)
	}
}

// checkWrite reports FZ002 when the assignment target is an element,
// field, or dereference reached through a frozen value. Rebinding a
// frozen variable itself (plain ident LHS) is always legal.
func (fc *freezeChecker) checkWrite(lhs ast.Expr) {
	for {
		switch t := lhs.(type) {
		case *ast.ParenExpr:
			lhs = t.X
			continue
		case *ast.IndexExpr:
			lhs = t.X
		case *ast.StarExpr:
			lhs = t.X
		case *ast.SelectorExpr:
			lhs = t.X
		default:
			return
		}
		if fc.isSharedChunk(lhs) {
			fc.pass.Report(lhs.Pos(), "FZ003",
				"write through chunk %s published by ReadChunk; cached chunks are shared across readers — build a replacement chunk instead",
				exprString(lhs))
			return
		}
		if fc.isFrozen(lhs) {
			fc.pass.Report(lhs.Pos(), "FZ002",
				"write through frozen value %s; snapshot readers share this data — CowClone before mutating",
				exprString(lhs))
			return
		}
	}
}

// isSharedChunk reports whether e evaluates to a cache-published chunk:
// a ReadChunk call, a tainted variable, or a path through either.
func (fc *freezeChecker) isSharedChunk(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fc.isSharedChunk(e.X)
	case *ast.Ident:
		obj := fc.info.Uses[e]
		if obj == nil {
			obj = fc.info.Defs[e]
		}
		return obj != nil && fc.sharedChunk[obj]
	case *ast.SelectorExpr:
		return fc.isSharedChunk(e.X)
	case *ast.IndexExpr:
		return fc.isSharedChunk(e.X)
	case *ast.StarExpr:
		return fc.isSharedChunk(e.X)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "ReadChunk" && fc.info.Selections[sel] != nil
	}
	return false
}

// checkCall reports FZ001 when a relation mutator runs on a frozen
// receiver.
func (fc *freezeChecker) checkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !relationMutators[sel.Sel.Name] {
		return
	}
	// Only methods — a selection entry distinguishes x.Append (method)
	// from pkg.Append (qualified func).
	if fc.info.Selections[sel] == nil {
		return
	}
	if fc.isFrozen(sel.X) {
		fc.pass.Report(call.Pos(), "FZ001",
			"%s.%s() mutates a frozen relation reached from a snapshot read; CowClone it first",
			exprString(sel.X), sel.Sel.Name)
	}
}

// isFrozen reports whether e evaluates to a frozen value: a seed
// source, a tainted variable, or a path through either.
func (fc *freezeChecker) isFrozen(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fc.isFrozen(e.X)
	case *ast.Ident:
		obj := fc.info.Uses[e]
		if obj == nil {
			obj = fc.info.Defs[e]
		}
		return obj != nil && fc.frozen[obj]
	case *ast.SelectorExpr:
		// Event.Delta is frozen wherever the Event came from: deltas
		// alias the committed CoW versions.
		if e.Sel.Name == "Delta" && namedTypeName(fc.info.TypeOf(e.X)) == "Event" {
			return true
		}
		// Fields of a frozen struct are frozen.
		return fc.isFrozen(e.X)
	case *ast.IndexExpr:
		// Catalog reads: d.tables[name] / s.tables[name].
		if sel, ok := e.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "tables" &&
			frozenCatalogOwners[namedTypeName(fc.info.TypeOf(sel.X))] {
			return true
		}
		return fc.isFrozen(e.X)
	case *ast.StarExpr:
		return fc.isFrozen(e.X)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || fc.info.Selections[sel] == nil {
			return false
		}
		// Every other method result — CowClone and derive among them — is
		// a privately owned value, safe to mutate.
		switch {
		case sel.Sel.Name == "Table":
			// Any Table method whose first result is a *Relation hands
			// out the current immutable version: Snap, Database,
			// snapSource, and every TableSource implementation.
			return firstResultIsRelation(fc.info.TypeOf(e))
		case sel.Sel.Name == "Tuple" && namedTypeName(fc.info.TypeOf(sel.X)) == "Relation":
			// Tuple(i) returns a view aliasing the backing array.
			return true
		default:
			return false
		}
	}
	return false
}

// firstResultIsRelation reports whether a call's (possibly tuple)
// result type starts with *Relation.
func firstResultIsRelation(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	return namedTypeName(t) == "Relation"
}

// namedTypeName returns the name of the (possibly pointed-to) named
// type of t, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return ""
}

// exprString renders a short source-ish form of e for messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "expr"
}
