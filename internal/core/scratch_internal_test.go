package core

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"rstknn/internal/cluster"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Warm scratch state must make the scoring hot path allocation-free:
// selectors reuse their heap storage across pruning checks and arenas
// recycle their chunks across queries. These tests pin that property.

func TestKthSelectorWarmReuseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 64)
	counts := make([]int32, 64)
	for i := range vals {
		vals[i] = rng.Float64()
		counts[i] = int32(1 + rng.Intn(4))
	}
	sc := getScratch()
	defer sc.release()
	// Warm pass grows the selector heaps to steady-state capacity.
	sel := &sc.selLo
	sel.reset(10)
	for i := range vals {
		sel.add(vals[i], counts[i])
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sel.reset(10)
		for i := range vals {
			sel.add(vals[i], counts[i])
		}
		sink += sel.kth()
	})
	if allocs != 0 {
		t.Errorf("warm kthSelector allocates %v per selection, want 0", allocs)
	}
	_ = sink
}

func TestArenaWarmReuseAllocFree(t *testing.T) {
	sc := getScratch()
	defer sc.release()
	carve := func() {
		for i := 0; i < 32; i++ {
			p := allocParts(sc, 16)
			_ = append(p, part{})
			c := allocContribs(sc, 4, 4)
			_ = append(c, contributor{})
			sl := sc.slots.alloc(12)
			_ = append(sl, candidate{})
			gl := sc.glists.alloc(3)
			_ = append(gl, nil)
			g := sc.groups.alloc(2)
			_ = append(g, group{})
			q := sc.gqs.alloc(8)
			_ = append(q, groupQuery{})
		}
	}
	reset := func() {
		sc.parts.reset()
		sc.contribs.reset()
		sc.slots.reset()
		sc.glists.reset()
		sc.groups.reset()
		sc.gqs.reset()
	}
	// Warm pass makes the arenas grow their chunks once.
	carve()
	reset()
	allocs := testing.AllocsPerRun(50, func() {
		carve()
		reset()
	})
	if allocs != 0 {
		t.Errorf("warm arena carving allocates %v per query, want 0", allocs)
	}

	// A warm single-query traversal's node table: a pooled table reused
	// for the next traversal builds every node again and then serves
	// repeated reads (each one a store fetch) without allocating.
	tree := wbClusteredTree(t, 23)
	q := Query{Loc: geom.Point{X: 50, Y: 50}, Doc: vector.New(map[vector.TermID]float64{1: 1, 4: 2})}
	if _, err := RSTkNN(tree, q, Options{K: 3, Alpha: 0.5, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	tb := getTable(tree, nil, false)
	defer tb.release()
	var offs []int32
	ids := []storage.NodeID{tree.RootID()}
	for i := 0; i < len(ids); i++ {
		ents, err := tb.read(ids[i], &offs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ents {
			if !ents[j].IsObject() {
				ids = append(ids, ents[j].Child)
			}
		}
	}
	var tr storage.Tracker
	traverse := func() {
		tb.reset()
		tb.tree, tb.tr = tree, &tr
		for pass := 0; pass < 3; pass++ {
			for _, id := range ids {
				if _, err := tb.read(id, &offs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	traverse()
	tr = storage.Tracker{}
	allocs = testing.AllocsPerRun(20, traverse)
	if allocs != 0 {
		t.Errorf("warm node-table traversal allocates %v, want 0", allocs)
	}
	if want := int64(3 * len(ids) * 21); tr.Reads() != want {
		t.Errorf("standalone table charged %d reads for %d, want one per read", tr.Reads(), want)
	}
}

// TestArenaRewind pins mark/rewind: rewinds nest, span chunks, restore
// a mark taken before the arena held any chunk, return released chunks
// to spare (and the gauge), and leave clearing arenas' released space
// zeroed.
func TestArenaRewind(t *testing.T) {
	var mem memGauge
	a := arena[int]{chunk: 4, clearOnReset: true, mem: &mem}
	fill := func(n, v int) []int {
		s := a.alloc(n)
		for i := 0; i < n; i++ {
			s = append(s, v)
		}
		return s
	}
	const elem = int64(unsafe.Sizeof(0))

	// A mark before any chunk existed.
	m0 := a.mark()
	fill(3, 1)
	fill(3, 2) // second chunk
	if len(a.used) != 1 || mem.live != 8*elem {
		t.Fatalf("after two chunks: used %d, live %d", len(a.used), mem.live)
	}
	a.rewind(m0)
	if a.cur != nil || len(a.used) != 0 || len(a.spare) != 2 || mem.live != 0 {
		t.Fatalf("rewind to the empty mark: cur %v, used %d, spare %d, live %d",
			a.cur, len(a.used), len(a.spare), mem.live)
	}
	if mem.peak != 8*elem {
		t.Errorf("peak %d, want %d", mem.peak, 8*elem)
	}

	// Nested marks inside one chunk, then across chunks.
	base := fill(2, 3)
	m1 := a.mark()
	inner := fill(1, 4)
	m2 := a.mark()
	fill(1, 5)
	fill(4, 6) // new chunk
	fill(9, 7) // a chunk of a larger size class
	if len(a.used) != 2 {
		t.Fatalf("expected three chunks in use, have %d used", len(a.used))
	}
	a.rewind(m2)
	if len(a.used) != 0 || len(a.cur) != 3 || mem.live != 4*elem {
		t.Fatalf("rewind across chunks: used %d, cur len %d, live %d", len(a.used), len(a.cur), mem.live)
	}
	if base[0] != 3 || base[1] != 3 || inner[0] != 4 {
		t.Fatalf("carves before the mark changed: %v %v", base, inner)
	}
	a.rewind(m1)
	if len(a.cur) != 2 || inner[:1][0] != 0 {
		t.Fatalf("nested rewind: cur len %d, released slot reads %d", len(a.cur), inner[:1][0])
	}

	// Released space reads back as zero, in the truncated chunk and in
	// recycled ones.
	for _, n := range []int{2, 4, 4, 9} {
		s := a.alloc(n)[:n]
		for i, v := range s {
			if v != 0 {
				t.Fatalf("carve of %d after rewind: element %d = %d, want 0", n, i, v)
			}
		}
	}

	// reset after rewinds recycles everything and zeroes the gauge.
	a.reset()
	if a.cur != nil || len(a.used) != 0 || mem.live != 0 {
		t.Fatalf("reset: cur %v, used %d, live %d", a.cur, len(a.used), mem.live)
	}
}

// TestContributorSize guards the slim element layout: contribution lists
// are copied wholesale on every expansion, so re-embedding the 184-byte
// iurtree.Entry (or growing the element otherwise) must fail loudly.
func TestContributorSize(t *testing.T) {
	if got := unsafe.Sizeof(contributor{}); got > 40 {
		t.Errorf("contributor is %d bytes, want <= 40", got)
	}
}

// wbClusteredTree builds a CIUR-tree over a random collection large
// enough that the root's children are internal nodes.
func wbClusteredTree(t *testing.T, seed int64) *iurtree.Snapshot {
	t.Helper()
	objs := wbObjects(rand.New(rand.NewSource(seed)), 300)
	docs := make([]vector.Vector, len(objs))
	for i, o := range objs {
		docs[i] = o.Doc
	}
	tree, err := iurtree.Build(objs, iurtree.Config{
		Store:      storage.NewStore(),
		Clustering: cluster.Run(docs, cluster.Config{K: 5, Seed: 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRefinableEntropyAllocFree pins the entropy strategy's histogram
// reuse: choosing a contributor allocates nothing, and the choice is the
// one a fresh histogram per contributor, indexed by cluster ID, makes.
func TestRefinableEntropyAllocFree(t *testing.T) {
	tree := wbClusteredTree(t, 17)
	root, err := tree.ReadNode(tree.RootEntry().Child)
	if err != nil {
		t.Fatal(err)
	}
	var cl contributionList
	for i := range root.Entries {
		e := &root.Entries[i]
		cl.contributors = append(cl.contributors, contributor{
			entry: e,
			parts: []part{{lo: 0, hi: 1, count: e.Count}},
			stale: true,
		})
	}
	want, wantKey := -1, negInf
	for i := range cl.contributors {
		counts := make([]int, tree.NumClusters())
		for _, cs := range cl.contributors[i].entry.Clusters {
			counts[cs.Cluster] = int(cs.Count)
		}
		key := cluster.Entropy(counts)
		if want == -1 || key > wantKey {
			want, wantKey = i, key
		}
	}
	if wantKey <= 0 {
		t.Fatalf("root children are all pure (best entropy %g); the test needs a mixed one", wantKey)
	}
	hist := make([]int, tree.NumClusters())
	var got int
	allocs := testing.AllocsPerRun(100, func() {
		got = cl.refinable(RefineByEntropy, hist, negInf)
	})
	if allocs != 0 {
		t.Errorf("refinable(RefineByEntropy) allocates %v per call, want 0", allocs)
	}
	if got != want {
		t.Errorf("refinable(RefineByEntropy) = %d, want %d (entropy %g)", got, want, wantKey)
	}
}

// in reports whether p points at an element of s.
func in(s []iurtree.Entry, p *iurtree.Entry) bool {
	if len(s) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(&s[0]))
	at := uintptr(unsafe.Pointer(p))
	return at >= lo && at < lo+uintptr(len(s))*unsafe.Sizeof(s[0])
}

// TestContributorsPointIntoNodeTable is the aliasing check behind the
// slim contributor and the node table: after expansion (the seed's
// expand) and refinement, every slot entry points into the root's table
// slice and every contributor into its node's, two refinements of the
// same node in different groups share that node's one slice, and every
// entry keeps its value while the scratch's transient buffers are
// clobbered and further nodes are read.
func TestContributorsPointIntoNodeTable(t *testing.T) {
	tree := wbClusteredTree(t, 23)
	q := Query{Loc: geom.Point{X: 50, Y: 50}, Doc: vector.New(map[vector.TermID]float64{1: 1, 4: 2})}
	s := &searcher{tree: tree, opt: Options{Alpha: 0.5}, items: []BatchItem{{Query: q, K: 3}},
		table: getTable(tree, nil, false)}
	defer s.table.release()
	w := s.newWorker()
	defer w.release()

	first, err := w.seed()
	if err != nil {
		t.Fatal(err)
	}
	slice := func(id storage.NodeID) []iurtree.Entry {
		sl := s.table.nodes[id]
		if sl == nil {
			t.Fatalf("node %d is not in the table", id)
		}
		return sl.ents
	}
	root := slice(tree.RootID())
	owner := func(p *iurtree.Entry) storage.NodeID {
		for id, sl := range s.table.nodes {
			if in(sl.ents, p) {
				return id
			}
		}
		t.Fatalf("entry %p is not in the node table", p)
		return storage.InvalidNode
	}

	// Refine the same internal root child in every group whose list
	// holds it as a sibling, so the lists mix sibling, inherited and
	// refined entries and two of them refine one node.
	target := -1
	for j := range root {
		if !root[j].IsObject() {
			target = j
			break
		}
	}
	if target < 0 {
		t.Fatal("no internal root child; the test needs a deeper tree")
	}
	var refinedIn [][]contributor
	for _, c := range first {
		if !in(root, c.entry) {
			t.Fatalf("slot entry %p is not in the root's table slice", c.entry)
		}
		for _, g := range c.groups {
			for i := range g.cl.contributors {
				if g.cl.contributors[i].entry != &root[target] {
					continue
				}
				gSide := side{rect: c.entry.Rect, env: g.env, exact: c.entry.IsObject()}
				if err := w.refine(gSide, &g.cl, i, &g.spent); err != nil {
					t.Fatal(err)
				}
				refinedIn = append(refinedIn, g.cl.contributors)
				break
			}
		}
	}
	if len(refinedIn) < 2 {
		t.Fatalf("root child %d refined in %d groups, the test needs two", target, len(refinedIn))
	}
	kids := slice(root[target].Child)
	for gi, cts := range refinedIn {
		n := 0
		for _, ct := range cts {
			if in(kids, ct.entry) {
				n++
			}
		}
		if n != len(kids) {
			t.Errorf("refined group %d points at %d of the node's %d table entries", gi, n, len(kids))
		}
	}

	type snap struct {
		e    *iurtree.Entry
		want iurtree.Entry
	}
	var all []snap
	for _, c := range first {
		for _, g := range c.groups {
			for _, ct := range g.cl.contributors {
				owner(ct.entry)
				all = append(all, snap{e: ct.entry, want: *ct.entry})
			}
		}
	}

	// Clobber the transient buffers, then drive every candidate through
	// the production path — deciding, refining and expanding reuse the
	// same scratch and table — and no recorded entry may change.
	clear(w.scratch.repl[:cap(w.scratch.repl)])
	clear(w.scratch.sibParts[:cap(w.scratch.sibParts)])
	for i := range first {
		if _, err := w.process(&first[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, sn := range all {
		if !reflect.DeepEqual(*sn.e, sn.want) {
			t.Fatalf("contributor %d entry changed after scratch reuse: %+v, want %+v", i, *sn.e, sn.want)
		}
	}
}
