package core

import (
	"sync"
	"unsafe"
)

// The branch-and-bound hot path evaluates bounds for every (candidate,
// contributor) pair it touches; done naively that is one short-lived
// []part per evaluation plus selector state per pruning check, and the
// allocator dominates the profile. A scratch bundles every reusable
// buffer one worker needs so the steady-state scoring path allocates
// nothing: kthSelector heaps, arena-carved part, contributor and
// frontier slices, and the transient buffers of refinement and
// expansion. Scratches are pooled across queries; each query checks one
// out per worker and returns them all when it finishes, so arena memory
// is recycled without ever being shared between two live queries.

// memGauge tallies the bytes of arena chunks held (carved from, not
// spare) by the arenas pointing at it, and their high-water mark. It is
// updated per chunk, never per carve, and is owned by one goroutine at a
// time, like the arenas it counts.
type memGauge struct {
	live, peak int64
}

// add records n more held bytes (n < 0 releases them).
func (g *memGauge) add(n int64) {
	g.live += n
	if g.live > g.peak {
		g.peak = g.live
	}
}

// arena is a chunked bump allocator for slices of T. Carved slices stay
// valid until reset (or until a rewind past them); reset recycles every
// chunk for the next query instead of returning memory to the garbage
// collector.
type arena[T any] struct {
	// chunk is the allocation granularity; a request larger than chunk
	// gets a chunk of the smallest size class chunk·2^i that fits it.
	chunk int
	// clearOnReset zeroes recycled chunks (and rewound space) so value
	// types holding pointers (contributor, whose parts and entry
	// reference other allocations; iurtree.Entry, whose envelope and
	// cluster summaries do) do not retain a finished query's memory. It
	// also guarantees that every carve starts zeroed, which the frontier
	// slots rely on.
	clearOnReset bool
	// mem is charged each chunk's bytes while the arena holds it.
	mem *memGauge

	cur   []T   // current chunk; len = high-water mark of carved space
	used  [][]T // exhausted chunks awaiting reset
	spare [][]T // recycled chunks ready for reuse
}

// arenaMark is a carve position of one arena: rewinding to it releases
// everything carved since.
type arenaMark struct {
	used int  // len(used) when marked
	off  int  // len(cur) when marked
	cur  bool // whether a current chunk existed
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
	// Chunks come in size classes, and a recycled chunk is reused only
	// for its own class: the bytes a traversal holds then never depend
	// on what earlier traversals carved, and no spare sizes accumulate.
	size := a.chunk
	for size < n {
		size *= 2
	}
	for i := len(a.spare) - 1; i >= 0; i-- {
		if cap(a.spare[i]) == size {
			a.cur = a.spare[i]
			a.spare[i] = a.spare[len(a.spare)-1]
			a.spare[len(a.spare)-1] = nil
			a.spare = a.spare[:len(a.spare)-1]
			a.mem.add(a.bytes(a.cur))
			return
		}
	}
	a.cur = make([]T, 0, size) //rstknn:allow hotalloc chunk allocation, recycled across queries by reset
	a.mem.add(a.bytes(a.cur))
}

// bytes is the memory a chunk occupies.
func (a *arena[T]) bytes(c []T) int64 {
	var zero T
	return int64(cap(c)) * int64(unsafe.Sizeof(zero))
}

// recycle returns a chunk to the spare list. Only [0, len) was ever
// carved, so that is all a clearing arena must zero.
func (a *arena[T]) recycle(c []T) {
	if a.clearOnReset {
		clear(c)
	}
	a.mem.add(-a.bytes(c))
	a.spare = append(a.spare, c[:0]) //rstknn:allow hotalloc spare bookkeeping, its capacity is the arena's chunk high-water
}

// mark records the current carve position for a later rewind.
//
//rstknn:hotpath one mark per object-level decision
func (a *arena[T]) mark() arenaMark {
	return arenaMark{used: len(a.used), off: len(a.cur), cur: a.cur != nil}
}

// rewind releases every carve made since m, which must be the most
// recent mark not yet rewound past (stack discipline): the chunk that
// was current at m is truncated back to its marked length, and every
// chunk taken since goes back to spare. Slices carved since m become
// invalid; clearing arenas zero the released space, so later carves
// start zeroed as after a reset.
//
//rstknn:hotpath one rewind per object-level decision
func (a *arena[T]) rewind(m arenaMark) {
	if m.cur && len(a.used) == m.used {
		// Still carving the marked chunk: truncate it.
		if a.clearOnReset {
			clear(a.cur[m.off:])
		}
		a.cur = a.cur[:m.off]
		return
	}
	if a.cur != nil {
		a.recycle(a.cur)
		a.cur = nil
	}
	first := m.used
	if m.cur {
		first++ // a.used[m.used] is the marked chunk, current again below
	}
	for i := first; i < len(a.used); i++ {
		a.recycle(a.used[i])
		a.used[i] = nil
	}
	if m.cur {
		c := a.used[m.used]
		if a.clearOnReset {
			clear(c[m.off:])
		}
		a.cur = c[:m.off]
		a.used[m.used] = nil
	}
	a.used = a.used[:m.used]
}

// reset recycles every chunk — a rewind to the empty arena. Previously
// carved slices become invalid.
func (a *arena[T]) reset() { a.rewind(arenaMark{}) }

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
	// mem counts the chunk bytes every arena below holds.
	mem memGauge
	// parts backs every bound computation ([]part carves).
	parts arena[part]
	// contribs backs the long-lived contributor lists of groups.
	contribs arena[contributor]
	// slots, glists, groups and gqs back the frontier: one candidate per
	// expanded child (index-aligned with the node's table entries,
	// compacted in place), its group list, the group records and their
	// pending-query lists. They live until release, so the traversal
	// pays no per-child heap allocation for them.
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
	// offs is the NodeView offset buffer of the node-table builds this
	// worker runs; a build copies the view's entries out before the
	// next build reuses it.
	offs []int32
}

var scratchPool = sync.Pool{New: func() any {
	s := &scratch{}
	s.parts.chunk = 1024
	s.contribs.chunk = 256
	s.contribs.clearOnReset = true
	s.slots.chunk = 256
	s.slots.clearOnReset = true
	s.glists.chunk = 256
	s.glists.clearOnReset = true
	s.groups.chunk = 128
	s.groups.clearOnReset = true
	s.gqs.chunk = 512
	s.parts.mem = &s.mem
	s.contribs.mem = &s.mem
	s.slots.mem = &s.mem
	s.glists.mem = &s.mem
	s.groups.mem = &s.mem
	s.gqs.mem = &s.mem
	return s
}}

// getScratch checks a warm scratch out of the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release recycles the scratch for the next query. Must only be called
// once every reference into the scratch's arenas is dead (query end).
func (s *scratch) release() {
	s.parts.reset()
	s.contribs.reset()
	s.slots.reset()
	s.glists.reset()
	s.groups.reset()
	s.gqs.reset()
	s.mem = memGauge{}
	clear(s.repl)
	s.repl = s.repl[:0]
	clear(s.sibParts)
	s.sibParts = s.sibParts[:0]
	// hist, ids and offs hold only integers — no references to retain —
	// and stay warm across queries.
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
