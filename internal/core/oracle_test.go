package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"rstknn/internal/baseline"
	"rstknn/internal/core"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// bracketed reports whether the exact k-th NN similarity lies inside the
// traced kNN bounds, allowing for floating-point noise at either end.
func bracketed(kth float64, b [2]float64) bool {
	lo, hi := b[0], b[1]
	return (lo <= kth || geom.ApproxEqual(lo, kth)) && (kth <= hi || geom.ApproxEqual(kth, hi))
}

// TestTracedBoundsBracketOracle checks the search's bounds against the
// exhaustive oracle rather than against another run of the same driver:
// for every object-level verdict, the traced (kNNL, kNNU) must bracket
// the object's true k-th NN similarity (baseline.KthSimilarities), and
// the result set must equal baseline.Naive. It covers RSTkNN and every
// item of a MultiRSTkNN batch, on IUR- and CIUR-trees, under both
// refinement strategies, at 1 and 4 workers.
func TestTracedBoundsBracketOracle(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	rng := rand.New(rand.NewSource(61))
	configs := []struct {
		name     string
		clusters int
		strategy core.RefineStrategy
	}{
		{"iur-maxupper", 0, core.RefineByMaxUpper},
		{"iur-entropy", 0, core.RefineByEntropy},
		{"ciur-maxupper", 6, core.RefineByMaxUpper},
		{"ciur-entropy", 6, core.RefineByEntropy},
	}
	const alpha = 0.5
	sim := vector.EJ{}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			objs := genObjects(rng, 200+rng.Intn(100), 40, 6)
			tree := buildTree(t, objs, cfg.clusters, false)
			kth := map[int][]float64{}
			for _, k := range []int{1, 3, 10} {
				kth[k] = baseline.KthSimilarities(objs, k, alpha, tree.MaxD(), sim)
			}
			// check compares one query's traced bounds and results with
			// the oracle; genObjects assigns ID i to objs[i].
			check := func(tag string, q core.Query, k int, out *core.Outcome, rec *boundRecorder) {
				t.Helper()
				want, err := baseline.Naive(objs, q, k, alpha, tree.MaxD(), sim)
				if err != nil {
					t.Fatal(err)
				}
				if !idsEqual(out.Results, want) {
					t.Errorf("%s: results %v != oracle %v", tag, out.Results, want)
				}
				if len(rec.bounds) == 0 {
					t.Errorf("%s: no object-level verdict traced", tag)
				}
				for id, b := range rec.bounds {
					if !bracketed(kth[k][id], b) {
						t.Errorf("%s: object %d bounds [%g, %g] miss its k-th NN similarity %g",
							tag, id, b[0], b[1], kth[k][id])
					}
				}
			}
			queries := make([]core.Query, 4)
			ks := make([]int, len(queries))
			for i := range queries {
				queries[i] = genQuery(rng, 40, 6)
				ks[i] = []int{1, 3, 10}[i%3]
			}
			for _, workers := range []int{1, 4} {
				opt := core.Options{Alpha: alpha, Sim: sim, Strategy: cfg.strategy, Workers: workers}
				items := make([]core.BatchItem, len(queries))
				recs := make([]*boundRecorder, len(queries))
				for i, q := range queries {
					rec := newBoundRecorder()
					o := opt
					o.K = ks[i]
					o.BoundTrace = rec.trace
					out, err := core.RSTkNN(tree, q, o)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("RSTkNN workers=%d query=%d k=%d", workers, i, ks[i]), q, ks[i], out, rec)

					recs[i] = newBoundRecorder()
					items[i] = core.BatchItem{Query: q, K: ks[i], BoundTrace: recs[i].trace}
				}
				mo, err := core.MultiRSTkNN(tree, items, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					check(fmt.Sprintf("MultiRSTkNN workers=%d item=%d k=%d", workers, i, ks[i]), q, ks[i], mo.Outcomes[i], recs[i])
				}
			}
		})
	}
}

// readLog wraps a store and counts every page fetch per node, so the
// I/O attribution can be checked against what the store really served.
type readLog struct {
	storage.Blobs
	mu    sync.Mutex
	reads map[storage.NodeID]int
}

func (l *readLog) GetTracked(id storage.NodeID, tr *storage.Tracker) ([]byte, error) {
	l.mu.Lock()
	l.reads[id]++
	l.mu.Unlock()
	return l.Blobs.GetTracked(id, tr)
}

// reset forgets the reads logged so far.
func (l *readLog) reset() {
	l.mu.Lock()
	l.reads = map[storage.NodeID]int{}
	l.mu.Unlock()
}

// fetches returns the number of fetches and of distinct nodes logged.
func (l *readLog) fetches() (total, distinct int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.reads {
		total += n
	}
	return total, len(l.reads)
}

// checkViewReaderIO pins the I/O attribution of TopK and CountExceeding,
// which read through zero-copy views: each call charges its tracker once
// per logical node read, matching Metrics.NodesRead and the store's
// fetch count, and a repeated identical TopK decodes nothing — every one
// of its node reads is a bound-cache hit, while still paying the fetch.
func checkViewReaderIO(t *testing.T, tree *iurtree.Snapshot, log *readLog, q core.Query, k int, tag string) {
	t.Helper()
	topk := func() ([]core.Neighbor, core.Metrics) {
		log.reset()
		var tr storage.Tracker
		nbs, m, err := core.TopK(tree, q, core.TopKOptions{K: k, Alpha: 0.5, Exclude: -1, Tracker: &tr})
		if err != nil {
			t.Fatal(err)
		}
		if fetched, _ := log.fetches(); tr.Reads() != int64(m.NodesRead) || fetched != m.NodesRead {
			t.Errorf("%s: TopK tracker reads %d, store fetches %d, want NodesRead %d",
				tag, tr.Reads(), fetched, m.NodesRead)
		}
		return nbs, m
	}
	first, m1 := topk()
	hits := tree.BoundCacheStats().Hits
	again, m2 := topk()
	if m2 != m1 || len(again) != len(first) {
		t.Fatalf("%s: repeated TopK differs: %v %+v vs %v %+v", tag, again, m2, first, m1)
	}
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("%s: repeated TopK differs at %d: %v vs %v", tag, i, again[i], first[i])
		}
	}
	if got := tree.BoundCacheStats().Hits - hits; got != int64(m2.NodesRead) {
		t.Errorf("%s: repeated TopK added %d bound-cache hits, want NodesRead %d", tag, got, m2.NodesRead)
	}

	// Count the objects beating half the k-th similarity, capped above k.
	threshold := first[len(first)-1].Sim / 2
	log.reset()
	var tr storage.Tracker
	_, m, err := core.CountExceeding(tree, q, threshold, 2*k, core.BichromaticOptions{Alpha: 0.5, Tracker: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if fetched, _ := log.fetches(); m.NodesRead == 0 || tr.Reads() != int64(m.NodesRead) || fetched != m.NodesRead {
		t.Errorf("%s: CountExceeding tracker reads %d, store fetches %d, want NodesRead %d > 0",
			tag, tr.Reads(), fetched, m.NodesRead)
	}
}

// TestTrackerIOAttribution pins who pays for each read on a store
// without a buffer pool. A standalone RSTkNN charges its tracker once per
// logical node read: Tracker.Reads() equals Metrics.NodesRead and the
// store's own fetch count. A one-item MultiRSTkNN reports the same
// per-query Metrics, but its batch tracker pays once per distinct node
// (and the store serves each node once), while the item's tracker records
// one shared read per logical read. checkPooledIO repeats the standalone
// and batch checks on a store with an evicting buffer pool.
func TestTrackerIOAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	objs := genObjects(rng, 300, 40, 6)
	for _, clusters := range []int{0, 6} {
		cfg := treeConfig(objs, clusters)
		log := &readLog{Blobs: cfg.Store}
		cfg.Store = log
		tree, err := iurtree.Build(objs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		deduped := false
		for trial := 0; trial < 6; trial++ {
			q := genQuery(rng, 40, 6)
			k := []int{1, 3, 10}[trial%3]
			for _, workers := range []int{1, 4} {
				tag := fmt.Sprintf("clusters=%d trial=%d k=%d workers=%d", clusters, trial, k, workers)
				opt := core.Options{Alpha: 0.5, Strategy: core.RefineByMaxUpper, Workers: workers}

				log.reset()
				var tr storage.Tracker
				o := opt
				o.K = k
				o.Tracker = &tr
				single, err := core.RSTkNN(tree, q, o)
				if err != nil {
					t.Fatal(err)
				}
				fetched, _ := log.fetches()
				if tr.Reads() != int64(single.Metrics.NodesRead) || fetched != single.Metrics.NodesRead {
					t.Errorf("%s: RSTkNN tracker reads %d, store fetches %d, want NodesRead %d",
						tag, tr.Reads(), fetched, single.Metrics.NodesRead)
				}
				if tr.CacheHits() != 0 || tr.SharedReads() != 0 {
					t.Errorf("%s: RSTkNN tracker saw %d cache hits and %d shared reads without a pool or batch",
						tag, tr.CacheHits(), tr.SharedReads())
				}

				log.reset()
				var batchTr, itemTr storage.Tracker
				o = opt
				o.Tracker = &batchTr
				mo, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: q, K: k, Tracker: &itemTr}}, o)
				if err != nil {
					t.Fatal(err)
				}
				got := mo.Outcomes[0]
				if !idsEqual(got.Results, single.Results) || got.Metrics != single.Metrics {
					t.Errorf("%s: one-item batch %v %+v != RSTkNN %v %+v",
						tag, got.Results, got.Metrics, single.Results, single.Metrics)
				}
				fetched, distinct := log.fetches()
				if fetched != distinct {
					t.Errorf("%s: store served %d fetches for %d distinct nodes", tag, fetched, distinct)
				}
				if batchTr.Reads() != int64(distinct) || mo.Batch.NodesRead != distinct {
					t.Errorf("%s: batch tracker reads %d, Batch.NodesRead %d, want %d distinct nodes",
						tag, batchTr.Reads(), mo.Batch.NodesRead, distinct)
				}
				if itemTr.Reads() != 0 || itemTr.SharedReads() != int64(got.Metrics.NodesRead) {
					t.Errorf("%s: item tracker %d reads and %d shared reads, want 0 and %d",
						tag, itemTr.Reads(), itemTr.SharedReads(), got.Metrics.NodesRead)
				}
				if mo.Batch.SharedHits != got.Metrics.NodesRead-distinct {
					t.Errorf("%s: SharedHits %d != logical %d - distinct %d",
						tag, mo.Batch.SharedHits, got.Metrics.NodesRead, distinct)
				}
				if distinct < got.Metrics.NodesRead {
					deduped = true
				}
			}
			checkViewReaderIO(t, tree, log, q, k, fmt.Sprintf("clusters=%d trial=%d k=%d", clusters, trial, k))
		}
		if !deduped {
			t.Errorf("clusters=%d: no query re-read a node, so the distinct-node charge went untested", clusters)
		}
		checkPooledIO(t, objs, clusters, rng)
	}
}

// checkPooledIO pins the I/O attribution under a buffer pool too small
// to hold the tree. A standalone RSTkNN reads a node's contents once
// from its node table but must still fetch from the store on every
// logical read, so the pool sees exactly the accesses a re-reading
// traversal makes: the store is asked once per Metrics.NodesRead, each
// ask is a tracker read or a cache hit, and the store's own miss count
// equals the tracker's reads. A one-item batch asks once per distinct
// node, charged to the batch tracker.
func checkPooledIO(t *testing.T, objs []iurtree.Object, clusters int, rng *rand.Rand) {
	t.Helper()
	cfg := treeConfig(objs, clusters)
	store := storage.NewStore(storage.WithBufferPool(8))
	log := &readLog{Blobs: store}
	cfg.Store = log
	tree, err := iurtree.Build(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int64
	for trial := 0; trial < 6; trial++ {
		q := genQuery(rng, 40, 6)
		k := []int{1, 3, 10}[trial%3]
		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("pool clusters=%d trial=%d k=%d workers=%d", clusters, trial, k, workers)
			opt := core.Options{Alpha: 0.5, Strategy: core.RefineByMaxUpper, Workers: workers}

			log.reset()
			before := store.Stats()
			var tr storage.Tracker
			o := opt
			o.K = k
			o.Tracker = &tr
			single, err := core.RSTkNN(tree, q, o)
			if err != nil {
				t.Fatal(err)
			}
			fetched, _ := log.fetches()
			n := int64(single.Metrics.NodesRead)
			if tr.Reads()+tr.CacheHits() != n || int64(fetched) != n {
				t.Errorf("%s: RSTkNN tracker reads %d + cache hits %d, store asked %d times, want NodesRead %d",
					tag, tr.Reads(), tr.CacheHits(), fetched, n)
			}
			if got := store.Stats().Reads - before.Reads; got != tr.Reads() {
				t.Errorf("%s: store missed its pool %d times, tracker read %d", tag, got, tr.Reads())
			}
			hits += tr.CacheHits()
			misses += tr.Reads()

			log.reset()
			var batchTr storage.Tracker
			o = opt
			o.Tracker = &batchTr
			mo, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: q, K: k}}, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := mo.Outcomes[0]; !idsEqual(got.Results, single.Results) || got.Metrics != single.Metrics {
				t.Errorf("%s: one-item batch %v %+v != RSTkNN %v %+v",
					tag, got.Results, got.Metrics, single.Results, single.Metrics)
			}
			fetched, distinct := log.fetches()
			if fetched != distinct || mo.Batch.NodesRead != distinct ||
				batchTr.Reads()+batchTr.CacheHits() != int64(distinct) {
				t.Errorf("%s: batch asked the store %d times for %d distinct nodes; Batch.NodesRead %d, tracker %d reads + %d hits",
					tag, fetched, distinct, mo.Batch.NodesRead, batchTr.Reads(), batchTr.CacheHits())
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("pool clusters=%d: %d cache hits and %d misses; the pool must both serve and evict", clusters, hits, misses)
	}
}
