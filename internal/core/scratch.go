package core

import (
	"sync"

	"rstknn/internal/iurtree"
)

// The branch-and-bound hot path evaluates bounds for every (candidate,
// contributor) pair it touches; done naively that is one short-lived
// []part per evaluation plus selector state per pruning check, and the
// allocator dominates the profile. A scratch bundles every reusable
// buffer one worker needs so the steady-state scoring path allocates
// nothing: kthSelector heaps, arena-carved part, contributor and entry
// slices, and the transient buffers of refinement and expansion.
// Scratches are pooled across queries; each query checks one out per
// worker and returns them all when it finishes, so arena memory is
// recycled without ever being shared between two live queries.

// arena is a chunked bump allocator for slices of T. Carved slices stay
// valid until reset; reset recycles every chunk for the next query
// instead of returning memory to the garbage collector.
type arena[T any] struct {
	// chunk is the allocation granularity; requests larger than chunk
	// get a dedicated chunk of exactly their size.
	chunk int
	// clearOnReset zeroes recycled chunks so value types holding
	// pointers (contributor, whose parts and entry reference other
	// allocations; iurtree.Entry, whose envelope and cluster summaries
	// do) do not retain a finished query's memory. It also guarantees
	// that every carve starts zeroed, which the frontier slots rely on.
	clearOnReset bool

	cur   []T   // current chunk; len = high-water mark of carved space
	used  [][]T // exhausted chunks awaiting reset
	spare [][]T // recycled chunks ready for reuse
}

// alloc carves a slice with length 0 and capacity n from the arena. The
// caller appends at most n elements; appending beyond n falls back to the
// heap via the ordinary append growth path (correct, merely allocating).
//
//rstknn:hotpath one carve per bound evaluation in the steady state
func (a *arena[T]) alloc(n int) []T {
	if cap(a.cur)-len(a.cur) < n {
		a.grow(n)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off : off+n]
}

// grow is the arena's amortized cold path: it runs once per chunk, not
// once per carve, so its allocations are blessed below.
func (a *arena[T]) grow(n int) {
	if a.cur != nil {
		a.used = append(a.used, a.cur) //rstknn:allow hotalloc chunk bookkeeping, amortized over chunk-many carves
		a.cur = nil
	}
	// Prefer a recycled chunk large enough for the request.
	for i := len(a.spare) - 1; i >= 0; i-- {
		if cap(a.spare[i]) >= n {
			a.cur = a.spare[i]
			a.spare[i] = a.spare[len(a.spare)-1]
			a.spare[len(a.spare)-1] = nil
			a.spare = a.spare[:len(a.spare)-1]
			return
		}
	}
	size := a.chunk
	if size < n {
		size = n
	}
	a.cur = make([]T, 0, size) //rstknn:allow hotalloc chunk allocation, recycled across queries by reset
}

// reset recycles every chunk. Previously carved slices become invalid.
func (a *arena[T]) reset() {
	if a.cur != nil {
		a.used = append(a.used, a.cur)
		a.cur = nil
	}
	for _, c := range a.used {
		if a.clearOnReset {
			clear(c[:cap(c)])
		}
		a.spare = append(a.spare, c[:0])
	}
	a.used = a.used[:0]
}

// scratch is the per-worker reusable state of one search worker. It is
// owned by exactly one goroutine at a time; slices carved from its arenas
// may be *read* by other workers in later rounds (candidate expansion
// publishes them via the round barrier) but are only ever written by the
// owner before publication — except a frontier slot's group list and its
// groups, which the one worker that processes the slot decides and
// filters in place.
type scratch struct {
	// selLo/selHi are the kNN-bound selectors, reused across every
	// pruning check so their heap storage is allocated once.
	selLo, selHi kthSelector
	// parts backs every bound computation ([]part carves).
	parts arena[part]
	// contribs backs the long-lived contributor lists of groups.
	contribs arena[contributor]
	// ents backs every Entry materialized from a NodeView — the
	// children of expanded and refined nodes. Contributors point into
	// it instead of holding 184-byte copies, so a carve must stay put
	// until release: it is never reused within a query.
	ents arena[iurtree.Entry]
	// slots, glists, groups and gqs back the frontier: one candidate per
	// expanded child (index-aligned with the ents carve, compacted in
	// place), its group list, the group records and their pending-query
	// lists. Like ents they live until release, so the traversal pays no
	// per-child heap allocation for them.
	slots  arena[candidate]
	glists arena[*group]
	groups arena[group]
	gqs    arena[groupQuery]
	// repl is the transient replacement buffer of refine(): replace()
	// copies it into the contribution list, so it never outlives a call.
	repl []contributor
	// sibParts is the transient per-expansion sibling-bounds buffer.
	sibParts [][]part
	// ids is the transient buffer of a reported group's collected
	// members, copied into each reporting query's results.
	ids []int32
	// hist is the cluster-histogram buffer of entropy refinement, sized
	// to the tree's cluster count when a worker checks the scratch out.
	hist []int
	// viewBufs stacks recycled NodeView offset tables. A stack (not a
	// single buffer) because collect() recurses with the parent's view
	// still live; depth never exceeds the tree height.
	viewBufs [][]int32
}

var scratchPool = sync.Pool{New: func() any {
	s := &scratch{}
	s.parts.chunk = 1024
	s.contribs.chunk = 256
	s.contribs.clearOnReset = true
	s.ents.chunk = 256
	s.ents.clearOnReset = true
	s.slots.chunk = 256
	s.slots.clearOnReset = true
	s.glists.chunk = 256
	s.glists.clearOnReset = true
	s.groups.chunk = 128
	s.groups.clearOnReset = true
	s.gqs.chunk = 512
	return s
}}

// getScratch checks a warm scratch out of the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release recycles the scratch for the next query. Must only be called
// once every reference into the scratch's arenas is dead (query end).
func (s *scratch) release() {
	s.parts.reset()
	s.contribs.reset()
	s.ents.reset()
	s.slots.reset()
	s.glists.reset()
	s.groups.reset()
	s.gqs.reset()
	clear(s.repl)
	s.repl = s.repl[:0]
	clear(s.sibParts)
	s.sibParts = s.sibParts[:0]
	// viewBufs, hist and ids hold only integers — no references to
	// retain — and stay warm across queries.
	scratchPool.Put(s)
}

// sizeHist sets the histogram buffer's length to n, growing it only when
// the pooled scratch has never served a tree with that many clusters.
func (s *scratch) sizeHist(n int) {
	if cap(s.hist) < n {
		s.hist = make([]int, n)
	}
	s.hist = s.hist[:n]
}

// getViewBuf pops a recycled offset buffer for a NodeView, or returns
// nil (ReadViewTracked then grows a fresh one that putViewBuf captures).
func (s *scratch) getViewBuf() []int32 {
	if n := len(s.viewBufs); n > 0 {
		b := s.viewBufs[n-1]
		s.viewBufs = s.viewBufs[:n-1]
		return b
	}
	return nil
}

// putViewBuf returns a finished view's offset buffer to the stack.
func (s *scratch) putViewBuf(b []int32) {
	if b != nil {
		s.viewBufs = append(s.viewBufs, b)
	}
}

// allocParts carves a part slice from the scratch arena, or falls back to
// the heap when no scratch is threaded through (external callers of the
// bound helpers, e.g. white-box tests).
//
//rstknn:hotpath one carve per bound evaluation
func allocParts(sc *scratch, n int) []part {
	if sc != nil {
		return sc.parts.alloc(n)
	}
	return make([]part, 0, n) //rstknn:allow hotalloc heap fallback for scratch-less callers (tests)
}

// allocContribs mirrors allocParts for contributor slices. extra reserves
// growth headroom: contribution lists grow in place when a refinement
// replaces one contributor with a node's children, and headroom keeps
// those appends inside the arena instead of spilling to the heap.
//
//rstknn:hotpath one carve per candidate expansion
func allocContribs(sc *scratch, n, extra int) []contributor {
	if sc != nil {
		return sc.contribs.alloc(n + extra)
	}
	return make([]contributor, 0, n+extra) //rstknn:allow hotalloc heap fallback for scratch-less callers (tests)
}
