package core

import (
	"sync"
	"sync/atomic"

	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// nodeTable is the node table of one traversal: node ID → the node's
// entries, materialized once from a NodeView and shared by every
// expansion, refinement and member collection that reads the node, on
// every worker. A node's children are data, not query state, so one
// copy serves all of them; contributors and frontier slots point into
// it. The table lives until the traversal ends, and the entries are
// read-only once built, so any worker may read them.
//
// Every logical read still pays its I/O, by mode:
//   - shared (a batch): the first read of a node is its one physical
//     fetch, charged to tr; later reads touch nothing, and the caller
//     records them as shared reads on the per-query trackers (fold).
//   - standalone (one RSTkNN query): the first read builds the slot
//     through ReadViewTracked, and every later read makes one more store
//     fetch (Snapshot.TouchTracked) charged to tr, so buffer-pool state,
//     PageAccesses, store fetch counts and freed-slot checks are exactly
//     those of a reader that re-parses the node on every read. Only the
//     parse and the copy are shared.
//
// Tables are pooled: release clears the map (keeping its buckets) and
// recycles the slot and entry arenas, so a warm traversal builds its
// table without allocating.
type nodeTable struct {
	tree   *iurtree.Snapshot
	tr     *storage.Tracker
	shared bool
	// phys counts builds: the distinct nodes the traversal read.
	phys atomic.Int64

	// mu guards the map and the two arenas (carves only: a build fills
	// its carve outside the lock).
	mu    sync.Mutex
	nodes map[storage.NodeID]*tableSlot
	slots arena[tableSlot]
	ents  arena[iurtree.Entry]
	// mem counts the arenas' chunk bytes, under mu.
	mem memGauge
}

// tableSlot is one node's entry in the table. The sync.Once serializes
// the build without holding the table mutex across I/O.
type tableSlot struct {
	once sync.Once
	ents []iurtree.Entry
	err  error
}

var tablePool = sync.Pool{New: func() any {
	t := &nodeTable{nodes: make(map[storage.NodeID]*tableSlot)}
	t.slots.chunk = 64
	t.slots.clearOnReset = true
	t.slots.mem = &t.mem
	t.ents.chunk = 256
	t.ents.clearOnReset = true
	t.ents.mem = &t.mem
	return t
}}

// getTable checks a warm table out of the pool for one traversal of
// tree, charging node fetches to tr.
func getTable(tree *iurtree.Snapshot, tr *storage.Tracker, shared bool) *nodeTable {
	t := tablePool.Get().(*nodeTable)
	t.tree, t.tr, t.shared = tree, tr, shared
	return t
}

// reset empties the table for its next traversal. Entries handed out
// become invalid.
func (t *nodeTable) reset() {
	clear(t.nodes)
	t.slots.reset()
	t.ents.reset()
	t.mem = memGauge{}
	t.phys.Store(0)
	t.tree, t.tr = nil, nil
}

// release resets the table and returns it to the pool. Call only once
// the traversal is over.
func (t *nodeTable) release() {
	t.reset()
	tablePool.Put(t)
}

// read returns node id's entries — built on the first read, shared
// afterwards — charging the read as the table's mode prescribes.
//
//rstknn:hotpath one lookup per logical node read
func (t *nodeTable) read(id storage.NodeID, offs *[]int32) ([]iurtree.Entry, error) {
	t.mu.Lock()
	s := t.nodes[id]
	if s == nil {
		s = t.slot(id)
	}
	t.mu.Unlock()
	built := false
	s.once.Do(func() { //rstknn:allow hotalloc the literal does not escape Once.Do, so it stays on the stack
		built = true
		t.build(s, id, offs)
	})
	if !built && !t.shared && s.err == nil {
		if err := t.tree.TouchTracked(id, t.tr); err != nil {
			return nil, err
		}
	}
	return s.ents, s.err
}

// slot adds an empty slot for id. Called with mu held.
func (t *nodeTable) slot(id storage.NodeID) *tableSlot {
	s := &t.slots.alloc(1)[:1][0]
	t.nodes[id] = s
	return s
}

// build fetches and parses node id once and copies its entries into the
// table: the cold path, run once per distinct node per traversal. offs
// is the calling worker's offset buffer, free again when build returns.
func (t *nodeTable) build(s *tableSlot, id storage.NodeID, offs *[]int32) {
	t.phys.Add(1)
	v, err := t.tree.ReadViewTracked(id, t.tr, *offs) //rstknn:allow hotalloc once per node per traversal; warm views reuse the worker's offset buffer
	if err == nil {
		t.mu.Lock()
		dst := t.ents.alloc(v.Len())
		t.mu.Unlock()
		s.ents = v.AppendEntries(dst) //rstknn:allow hotalloc fills an exact-size carve
	}
	s.err = err
	*offs = v.RecycleBuf()
}
