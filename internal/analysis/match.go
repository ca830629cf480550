package analysis

import (
	"go/ast"
	"go/types"
)

// The storage and tree layers expose raw read methods (Get, ReadNode)
// purely as conveniences over their *Tracked variants. The matchers below
// classify method calls by receiver type name + method name rather than
// by import path, so the same analyzers run both on the real packages and
// on the self-contained analysistest fixtures.

// methodCall resolves a call expression to (receiver named type, method
// name). It reports false for plain function calls and unresolved code.
func methodCall(info *types.Info, call *ast.CallExpr) (*types.Named, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil, "", false
	}
	return named, sel.Sel.Name, true
}

// storeTypeNames are the named types acting as blob stores.
var storeTypeNames = map[string]bool{"Store": true, "FileStore": true, "Blobs": true}

// treeTypeNames are the named types whose ReadNode methods read tree
// nodes: iurtree.Snapshot in the engine, Tree in the fixtures.
var treeTypeNames = map[string]bool{"Snapshot": true, "Tree": true}

// rawReadCall reports whether call is an untracked simulated-I/O read:
// ReadNode on a tree type or a Get on a store type. These drop per-query I/O
// attribution and are what the trackedio analyzer flags.
func rawReadCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	named, method, ok := methodCall(info, call)
	if !ok {
		return "", false
	}
	name := named.Obj().Name()
	switch {
	case method == "ReadNode" && treeTypeNames[name]:
		return name + ".ReadNode", true
	case method == "Get" && storeTypeNames[name]:
		return name + ".Get", true
	}
	return "", false
}

// ioReadCall reports whether call performs simulated node/blob I/O at
// all, tracked or not. The locksafe analyzer forbids these while a lock
// is held.
func ioReadCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if name, ok := rawReadCall(info, call); ok {
		return name, true
	}
	named, method, ok := methodCall(info, call)
	if !ok {
		return "", false
	}
	name := named.Obj().Name()
	switch {
	case method == "ReadNodeTracked" && treeTypeNames[name]:
		return name + ".ReadNodeTracked", true
	case method == "GetTracked" && storeTypeNames[name]:
		return name + ".GetTracked", true
	}
	return "", false
}
