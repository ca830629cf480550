package bench

import (
	"testing"

	"rstknn/internal/core"
	"rstknn/internal/storage"
)

// BenchmarkPinnedWorkload answers the pinned workload's queries one at a
// time as a Go benchmark, so the standard -benchmem/-memprofile tooling
// can attribute the query path's time and allocations. TestPinnedGolden
// pins the same workload's counters.
func BenchmarkPinnedWorkload(b *testing.B) {
	_, queries, bm := pinnedWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			var tracker storage.Tracker
			_, err := core.RSTkNN(bm.tree, core.Query{Loc: q.Loc, Doc: q.Doc}, core.Options{
				K: defaultK, Alpha: defaultAlpha, Strategy: bm.strategy,
				Workers: 1, Tracker: &tracker,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
