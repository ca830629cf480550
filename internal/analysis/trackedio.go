package analysis

import (
	"go/ast"
)

// TrackedIO flags untracked simulated-I/O reads in library code.
//
// Every query path threads a per-query storage.Tracker so the paper's
// cost experiments (node accesses of the branch-and-bound RSTkNN search)
// attribute each page access to the query that caused it. A raw
// Snapshot.ReadNode or Store.Get silently charges only the global
// counters, corrupting per-query statistics under concurrency. Traversals
// must call the *Tracked variants; genuine non-query paths (index
// loading, maintenance copies) opt out with
//
//	//rstknn:allow trackedio <reason>
var TrackedIO = &Analyzer{
	Name: "trackedio",
	Doc: "forbids raw Snapshot.ReadNode / Store.Get in favor of the *Tracked " +
		"variants that preserve per-query I/O attribution",
	Run: runTrackedIO,
}

func runTrackedIO(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := rawReadCall(pass.TypesInfo, call); ok {
				pass.Reportf(call.Pos(),
					"untracked %s drops per-query I/O attribution; use the Tracked variant or annotate with //rstknn:allow trackedio <reason>",
					name)
			}
			return true
		})
	}
	return nil
}
