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
			e := sc.ents.alloc(12)
			_ = append(e, iurtree.Entry{})
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
		sc.ents.reset()
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

// owns reports whether p points into one of the arena's carved chunks.
func (a *arena[T]) owns(p *T) bool {
	size := unsafe.Sizeof(*p)
	for _, c := range append(a.used[:len(a.used):len(a.used)], a.cur) {
		if len(c) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(&c[0]))
		hi := lo + uintptr(len(c))*size
		if at := uintptr(unsafe.Pointer(p)); at >= lo && at < hi {
			return true
		}
	}
	return false
}

// TestContributorsPointIntoEntsArena is the aliasing check behind the
// slim contributor: after expansion (the seed's expand) and
// refinement, every contributor's entry lives in the worker's ents arena
// — never in a transient buffer the next read reuses — and keeps its
// value while the scratch's transient buffers are clobbered and further
// nodes are materialized.
func TestContributorsPointIntoEntsArena(t *testing.T) {
	tree := wbClusteredTree(t, 23)
	q := Query{Loc: geom.Point{X: 50, Y: 50}, Doc: vector.New(map[vector.TermID]float64{1: 1, 4: 2})}
	s := &searcher{tree: tree, opt: Options{Alpha: 0.5}, items: []BatchItem{{Query: q, K: 3}}}
	w := s.newWorker()
	defer w.release()

	first, err := w.seed()
	if err != nil {
		t.Fatal(err)
	}

	// Refine one internal contributor of every group, so the lists mix
	// sibling, inherited-from-seed and refined entries.
	refined := 0
	for _, c := range first {
		if !w.scratch.ents.owns(c.entry) {
			t.Fatalf("slot entry %p is not in the ents arena", c.entry)
		}
		for _, g := range c.groups {
			for i := range g.cl.contributors {
				if g.cl.contributors[i].entry.IsObject() {
					continue
				}
				gSide := side{rect: c.entry.Rect, env: g.env, exact: c.entry.IsObject()}
				if err := w.refine(gSide, &g.cl, i, &g.spent); err != nil {
					t.Fatal(err)
				}
				refined++
				break
			}
		}
	}
	if refined == 0 {
		t.Fatal("no internal contributor to refine; the test needs a deeper tree")
	}

	type snap struct {
		e    *iurtree.Entry
		want iurtree.Entry
	}
	var all []snap
	for _, c := range first {
		for _, g := range c.groups {
			for _, ct := range g.cl.contributors {
				if !w.scratch.ents.owns(ct.entry) {
					t.Fatalf("contributor entry %p is not in the ents arena", ct.entry)
				}
				all = append(all, snap{e: ct.entry, want: *ct.entry})
			}
		}
	}

	// Clobber the transient buffers, then drive every candidate through
	// the production path — deciding, refining and expanding reuse the
	// same scratch — and no recorded entry may change.
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
