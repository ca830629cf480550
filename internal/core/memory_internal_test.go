package core

import (
	"fmt"
	"testing"
	"unsafe"

	"rstknn/internal/dataset"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// chunkBytes is one chunk of every arena a worker scratch and the node
// table hold: the slack a chunk-granular high-water may carry beyond
// the bytes actually carved.
func chunkBytes(sc *scratch, tb *nodeTable) int64 {
	n := int64(sc.parts.chunk)*int64(unsafe.Sizeof(part{})) +
		int64(sc.contribs.chunk)*int64(unsafe.Sizeof(contributor{})) +
		int64(sc.slots.chunk)*int64(unsafe.Sizeof(candidate{})) +
		int64(sc.glists.chunk)*int64(unsafe.Sizeof((*group)(nil))) +
		int64(sc.groups.chunk)*int64(unsafe.Sizeof(group{})) +
		int64(sc.gqs.chunk)*int64(unsafe.Sizeof(groupQuery{}))
	return n + int64(tb.slots.chunk)*int64(unsafe.Sizeof(tableSlot{})) +
		int64(tb.ents.chunk)*int64(unsafe.Sizeof(iurtree.Entry{}))
}

// TestBatchScratchBounded pins that a traversal's memory follows its
// live state: a batch's scratch high-water is at most its frontier bytes
// plus the largest single object decision, plus one chunk per arena.
// The test replays the batch's one-worker traversal round by round,
// exactly as runBatchRounds does, measuring the scratch around every
// object decision: each must leave the scratch where it found it, and
// the frontier is what the rest of the traversal holds at the end. The
// replay's high-water must equal the figure MultiRSTkNN reports.
func TestBatchScratchBounded(t *testing.T) {
	col := dataset.Generate(dataset.GN, dataset.Params{N: 1000, Seed: 1})
	tree, err := iurtree.Build(col.Objects, iurtree.Config{Store: storage.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	qs := col.Queries(64, 3)
	for _, n := range []int{8, 32, 64} {
		t.Run(fmt.Sprintf("batch=%d", n), func(t *testing.T) {
			items := make([]BatchItem, n)
			for i := range items {
				items[i] = BatchItem{Query: Query{Loc: qs[i].Loc, Doc: qs[i].Doc}, K: 10}
			}
			opt := Options{Alpha: 0.5, Workers: 1}
			mo, err := MultiRSTkNN(tree, items, opt)
			if err != nil {
				t.Fatal(err)
			}

			s := &searcher{tree: tree, opt: opt, items: items, table: getTable(tree, nil, true)}
			defer s.table.release()
			w := s.newWorker()
			defer w.release()
			mem := &w.scratch.mem
			round, err := w.seed()
			if err != nil {
				t.Fatal(err)
			}
			var decisions int
			var retained, largest int64
			for len(round) > 0 {
				var next []candidate
				for i := range round {
					c := &round[i]
					if !c.entry.IsObject() {
						kids, err := w.process(c)
						if err != nil {
							t.Fatal(err)
						}
						next = append(next, kids...)
						continue
					}
					before, peak := mem.live, mem.peak
					mem.peak = before
					if _, err := w.process(c); err != nil {
						t.Fatal(err)
					}
					decisions++
					largest = max(largest, mem.peak-before)
					retained += mem.live - before
					mem.peak = max(peak, mem.peak)
				}
				round = next
			}
			if decisions == 0 {
				t.Fatal("no object decisions; the test needs a deeper traversal")
			}
			if retained != 0 {
				t.Errorf("%d object decisions left %d scratch bytes behind, want 0", decisions, retained)
			}
			frontier := mem.live - retained + s.table.mem.live
			high := mem.peak + s.table.mem.peak
			if high != mo.Batch.ScratchPeakBytes {
				t.Errorf("replayed high-water %d bytes, MultiRSTkNN reported %d", high, mo.Batch.ScratchPeakBytes)
			}
			bound := frontier + largest + chunkBytes(w.scratch, s.table)
			if high > bound {
				t.Errorf("high-water %d bytes exceeds frontier %d + largest decision %d + one chunk per arena (bound %d)",
					high, frontier, largest, bound)
			}
			t.Logf("%d queries: high-water %d B, frontier %d B, largest of %d decisions %d B",
				n, high, frontier, decisions, largest)
		})
	}
}
