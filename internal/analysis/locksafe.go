package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafe guards the concurrency invariants of the sharded buffer pool
// and bound cache:
//
//  1. Structs that embed a lock (sync.Mutex/RWMutex/..., sync/atomic
//     value types) are never copied — not as by-value parameters or
//     receivers, not as range values, not as reads of existing values.
//     Iterate shard slices by index and take the address.
//  2. No simulated node/blob I/O (ReadNode/Get and their Tracked
//     variants) runs between a Lock/RLock and its release in the same
//     block, or after a defer'd Unlock. Holding a shard lock across a
//     (simulated) disk read serializes every concurrent reader of that
//     shard — the exact contention the sharding removed.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "forbids copying mutex-bearing structs and holding locks across " +
		"simulated-I/O boundaries",
	Run: runLockSafe,
}

func runLockSafe(pass *Pass) error {
	reported := make(map[token.Pos]bool)
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkLockCopyFunc(pass, n)
			case *ast.RangeStmt:
				checkLockCopyRange(pass, n)
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// Discarding to _ is a use, not a live copy.
					if i < len(n.Lhs) && isBlank(n.Lhs[i]) {
						continue
					}
					checkLockCopyExpr(pass, rhs)
				}
			case *ast.ValueSpec:
				for i, rhs := range n.Values {
					if i < len(n.Names) && n.Names[i].Name == "_" {
						continue
					}
					checkLockCopyExpr(pass, rhs)
				}
			case *ast.BlockStmt:
				checkLockedIO(pass, n, reported)
			}
			return true
		})
	}
	return nil
}

// ------------------------------------------------------------------
// Rule 1: lock-bearing structs must not be copied.

// containsLock reports whether a value of type t embeds a no-copy
// synchronization primitive anywhere in its flat (non-pointer) layout.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				switch obj.Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
					return true
				}
			case "sync/atomic":
				// Every named value type in sync/atomic is no-copy.
				return true
			}
		}
		return containsLock(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsLock(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(t.Elem(), seen)
	}
	return false
}

func lockBearing(t types.Type) bool {
	return containsLock(t, make(map[types.Type]bool))
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func checkLockCopyFunc(pass *Pass, fd *ast.FuncDecl) {
	fields := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if _, isPtr := t.(*types.Pointer); isPtr || !lockBearing(t) {
				continue
			}
			pass.Reportf(field.Type.Pos(),
				"%s passes a lock-bearing %s by value; use a pointer", fd.Name.Name, t)
		}
	}
}

func checkLockCopyRange(pass *Pass, rs *ast.RangeStmt) {
	if rs.Value == nil {
		return
	}
	t := pass.TypesInfo.TypeOf(rs.Value)
	if t == nil || !lockBearing(t) {
		return
	}
	pass.Reportf(rs.Value.Pos(),
		"range copies a lock-bearing %s per iteration; iterate by index and take the address", t)
}

// checkLockCopyExpr flags reads of existing lock-bearing values (x := *p,
// x := s.shard, x := shards[i], x := y). Fresh composite literals are
// fine — they create the value being initialized.
func checkLockCopyExpr(pass *Pass, rhs ast.Expr) {
	switch rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	t := pass.TypesInfo.TypeOf(rhs)
	if t == nil {
		return
	}
	if _, isPtr := t.(*types.Pointer); isPtr || !lockBearing(t) {
		return
	}
	pass.Reportf(rhs.Pos(), "assignment copies a lock-bearing %s; use a pointer", t)
}

// ------------------------------------------------------------------
// Rule 2: no simulated I/O while a lock is held.

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
	opDeferUnlock
)

// lockOp classifies a statement as a lock acquisition/release on some
// receiver expression (rendered as a string so Lock and Unlock sites can
// be paired syntactically).
func lockOp(pass *Pass, stmt ast.Stmt) (recv string, kind lockOpKind) {
	var call *ast.CallExpr
	deferred := false
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
		deferred = true
	}
	if call == nil || len(call.Args) != 0 {
		return "", opNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	recvType := pass.TypesInfo.TypeOf(sel.X)
	if ptr, ok := recvType.(*types.Pointer); ok {
		recvType = ptr.Elem()
	}
	if recvType == nil || !lockBearing(recvType) {
		return "", opNone
	}
	recv = types.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if !deferred {
			return recv, opLock
		}
	case "Unlock", "RUnlock":
		if deferred {
			return recv, opDeferUnlock
		}
		return recv, opUnlock
	}
	return "", opNone
}

// checkLockedIO scans a block's statement list linearly, tracking which
// lock receivers are held, and flags any simulated-I/O call made while at
// least one lock is held. A defer'd Unlock keeps the lock held for the
// rest of the block.
func checkLockedIO(pass *Pass, block *ast.BlockStmt, reported map[token.Pos]bool) {
	held := make(map[string]bool)
	for _, stmt := range block.List {
		if recv, kind := lockOp(pass, stmt); kind != opNone {
			switch kind {
			case opLock:
				held[recv] = true
			case opUnlock:
				delete(held, recv)
			case opDeferUnlock:
				// Lock stays held until the function returns.
			}
			continue
		}
		if len(held) == 0 {
			continue
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if reported[call.Pos()] {
				return true
			}
			if name, ok := ioReadCall(pass.TypesInfo, call); ok {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"%s called while holding a lock; release the lock before simulated I/O", name)
				return true
			}
			// Transitive: a helper whose PerformsIO fact is set reads
			// nodes somewhere down its call chain — in this package or,
			// via the facts file, any imported one.
			if fn := staticCallee(pass.TypesInfo, call); fn != nil {
				if yes, why := pass.Facts.IOVerdict(fn); yes {
					reported[call.Pos()] = true
					pass.Reportf(call.Pos(),
						"%s performs simulated I/O (%s) while a lock is held; release the lock first",
						funcDisplay(fn, pass.Pkg), why)
				}
			}
			return true
		})
	}
}
