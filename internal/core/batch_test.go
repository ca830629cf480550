package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rstknn/internal/core"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// TestBatchSharedMatchesIndependent is the equivalence property of the
// shared-traversal batch engine: for every tree variant and refinement
// strategy, MultiRSTkNN must reproduce N independent RSTkNN calls
// exactly — same per-query result IDs, same per-query Metrics, and
// bit-identical per-object kNN bounds — at every worker count, while
// physically reading each node at most once for the whole batch.
func TestBatchSharedMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	configs := []struct {
		name        string
		clusters    int
		strategy    core.RefineStrategy
		groupRefine int
		eager       bool
	}{
		{"iur-maxupper", 0, core.RefineByMaxUpper, 0, false},
		{"iur-entropy", 0, core.RefineByEntropy, 0, false},
		{"ciur-maxupper", 6, core.RefineByMaxUpper, 0, false},
		{"ciur-entropy", 6, core.RefineByEntropy, 0, false},
		{"iur-maxupper-refine", 0, core.RefineByMaxUpper, 2, false},
		{"ciur-entropy-refine", 6, core.RefineByEntropy, 2, false},
		{"iur-maxupper-eager", 0, core.RefineByMaxUpper, 0, true},
		{"ciur-entropy-eager", 6, core.RefineByEntropy, 2, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			objs := genObjects(rng, 220+rng.Intn(120), 40, 6)
			tree := buildTree(t, objs, cfg.clusters, false)
			const nq = 8
			queries := make([]core.Query, nq)
			ks := make([]int, nq)
			for i := range queries {
				queries[i] = genQuery(rng, 40, 6)
				ks[i] = []int{1, 3, 10}[rng.Intn(3)]
			}
			checkBatchMatchesStandalone(t, tree, queries, ks, core.Options{
				Alpha:       0.5,
				Strategy:    cfg.strategy,
				GroupRefine: cfg.groupRefine,
				EagerBounds: cfg.eager,
			})
		})
	}
}

// TestBatchSharedGroupsSplitByK pins the grouping rule of the shared
// traversal: queries share a contribution list only when they share K.
// Identical queries split across two K values, plus near-duplicates of
// one of them, land on the same frontier slots with different cutoffs;
// each must still match its standalone run exactly, in results, Metrics
// and traced kNN bounds.
func TestBatchSharedGroupsSplitByK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	objs := genObjects(rng, 300, 40, 6)
	base := genQuery(rng, 40, 6)
	var queries []core.Query
	var ks []int
	for i := 0; i < 6; i++ {
		queries = append(queries, base)
		ks = append(ks, []int{3, 8}[i%2])
	}
	for i := 1; i <= 3; i++ {
		q := base
		q.Loc.X += float64(i) * 1e-3
		q.Loc.Y -= float64(i) * 1e-3
		queries = append(queries, q)
		ks = append(ks, 3)
	}
	for _, clusters := range []int{0, 6} {
		t.Run(fmt.Sprintf("clusters=%d", clusters), func(t *testing.T) {
			tree := buildTree(t, objs, clusters, false)
			checkBatchMatchesStandalone(t, tree, queries, ks, core.Options{
				Alpha:       0.5,
				Strategy:    core.RefineByEntropy,
				GroupRefine: 1,
			})
		})
	}
}

// checkBatchMatchesStandalone runs the queries once standalone and then
// as one MultiRSTkNN batch at 1, 2, 4 and 8 workers, and checks the
// batch against the standalone runs: per-query results, Metrics, shared
// reads and traced kNN bounds identical; no node fetched twice; shared
// hits and the batch tracker consistent with the physical reads; and the
// physical similarity work no more than the per-query sums.
func checkBatchMatchesStandalone(t *testing.T, tree *iurtree.Snapshot, queries []core.Query, ks []int, opt core.Options) {
	t.Helper()
	// The searcher clamps Workers to GOMAXPROCS, so on a 1-CPU machine
	// the multi-goroutine rounds would never spawn and the worker sweep
	// below would silently test the inline path four times. Raise the
	// cap for the duration of the check to exercise real concurrency
	// (and give -race something to bite on).
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	nq := len(queries)

	// The independent reference: one standalone call per query.
	indep := make([]*core.Outcome, nq)
	indepRec := make([]*boundRecorder, nq)
	logical := 0
	var logicalExact, logicalBound int64
	for i := range queries {
		rec := newBoundRecorder()
		o := opt
		o.K = ks[i]
		o.Workers = 1
		o.BoundTrace = rec.trace
		out, err := core.RSTkNN(tree, queries[i], o)
		if err != nil {
			t.Fatalf("independent query %d: %v", i, err)
		}
		indep[i] = out
		indepRec[i] = rec
		logical += out.Metrics.NodesRead
		logicalExact += out.Metrics.ExactSims
		logicalBound += out.Metrics.BoundEvals
	}

	for _, workers := range []int{1, 2, 4, 8} {
		recs := make([]*boundRecorder, nq)
		trackers := make([]storage.Tracker, nq)
		items := make([]core.BatchItem, nq)
		for i := range items {
			recs[i] = newBoundRecorder()
			items[i] = core.BatchItem{
				Query:      queries[i],
				K:          ks[i],
				BoundTrace: recs[i].trace,
				Tracker:    &trackers[i],
			}
		}
		var batchTracker storage.Tracker
		o := opt
		o.Workers = workers
		o.Tracker = &batchTracker
		mo, err := core.MultiRSTkNN(tree, items, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(mo.Outcomes) != nq {
			t.Fatalf("workers=%d: %d outcomes for %d items", workers, len(mo.Outcomes), nq)
		}
		for i := range items {
			tag := fmt.Sprintf("workers=%d query=%d k=%d", workers, i, ks[i])
			got, want := mo.Outcomes[i], indep[i]
			if !idsEqual(got.Results, want.Results) {
				t.Errorf("%s: results %v != independent %v", tag, got.Results, want.Results)
			}
			if got.Metrics != want.Metrics {
				t.Errorf("%s: metrics %+v != independent %+v", tag, got.Metrics, want.Metrics)
			}
			if got, want := trackers[i].SharedReads(), int64(mo.Outcomes[i].Metrics.NodesRead); got != want {
				t.Errorf("%s: %d shared reads, want one per logical read (%d)", tag, got, want)
			}
			if len(recs[i].bounds) != len(indepRec[i].bounds) {
				t.Errorf("%s: %d object verdicts != independent %d",
					tag, len(recs[i].bounds), len(indepRec[i].bounds))
			}
			for id, want := range indepRec[i].bounds {
				got, ok := recs[i].bounds[id]
				if !ok {
					t.Errorf("%s: object %d missing from batch verdicts", tag, id)
					continue
				}
				if got != want {
					t.Errorf("%s: object %d kNN bounds %v != independent %v", tag, id, got, want)
				}
			}
		}
		// The amortization accounting: the batch never fetches a
		// node twice, every logical read beyond the first fetch is
		// a shared hit, and the batch tracker carries exactly the
		// physical fetches.
		if mo.Batch.NodesRead > logical {
			t.Errorf("workers=%d: %d physical reads exceed %d logical", workers, mo.Batch.NodesRead, logical)
		}
		if mo.Batch.SharedHits != logical-mo.Batch.NodesRead {
			t.Errorf("workers=%d: SharedHits %d != logical %d - physical %d",
				workers, mo.Batch.SharedHits, logical, mo.Batch.NodesRead)
		}
		if mo.Batch.SharedHits <= 0 {
			t.Errorf("workers=%d: no shared hits across %d overlapping queries", workers, nq)
		}
		phys := batchTracker.Reads() + batchTracker.CacheHits()
		if phys != int64(mo.Batch.NodesRead) {
			t.Errorf("workers=%d: batch tracker saw %d reads, table counted %d",
				workers, phys, mo.Batch.NodesRead)
		}
		// Shared groups do each bound step once for all their queries.
		if mo.Batch.ExactSims > logicalExact || mo.Batch.BoundEvals > logicalBound {
			t.Errorf("workers=%d: physical similarity work (%d exact, %d bounds) exceeds the per-query sums (%d, %d)",
				workers, mo.Batch.ExactSims, mo.Batch.BoundEvals, logicalExact, logicalBound)
		}
	}
}

// TestBatchPhysicalSimilarityWork pins BatchMetrics.ExactSims and
// BoundEvals, the similarity work a batch physically did: a one-query
// batch does exactly its query's work, and a batch of identical queries
// with one K shares every group, so it does strictly less than the sum
// of its per-query counters.
func TestBatchPhysicalSimilarityWork(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	objs := genObjects(rng, 300, 40, 6)
	q := genQuery(rng, 40, 6)
	for _, clusters := range []int{0, 6} {
		tree := buildTree(t, objs, clusters, false)
		opt := core.Options{Alpha: 0.5, Workers: 1}

		mo, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: q, K: 4}}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if m := mo.Outcomes[0].Metrics; mo.Batch.ExactSims != m.ExactSims || mo.Batch.BoundEvals != m.BoundEvals {
			t.Errorf("clusters=%d: one-query batch did %d exact, %d bounds; its query counted %d, %d",
				clusters, mo.Batch.ExactSims, mo.Batch.BoundEvals, m.ExactSims, m.BoundEvals)
		}

		items := make([]core.BatchItem, 8)
		for i := range items {
			items[i] = core.BatchItem{Query: q, K: 4}
		}
		mo, err = core.MultiRSTkNN(tree, items, opt)
		if err != nil {
			t.Fatal(err)
		}
		var exact, bound int64
		for _, o := range mo.Outcomes {
			exact += o.Metrics.ExactSims
			bound += o.Metrics.BoundEvals
		}
		if mo.Batch.ExactSims >= exact || mo.Batch.BoundEvals >= bound {
			t.Errorf("clusters=%d: 8 identical queries did %d exact, %d bounds; not below the per-query sums %d, %d",
				clusters, mo.Batch.ExactSims, mo.Batch.BoundEvals, exact, bound)
		}
	}
}

// TestMultiRSTkNNValidation pins the input checks: a non-positive
// per-item K and an out-of-range Alpha must fail the whole batch.
func TestMultiRSTkNNValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := genObjects(rng, 40, 20, 4)
	tree := buildTree(t, objs, 0, false)
	q := genQuery(rng, 20, 4)
	if _, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: q, K: 3}, {Query: q, K: 0}},
		core.Options{Alpha: 0.5}); err == nil {
		t.Error("K=0 item accepted")
	}
	if _, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: q, K: 3}},
		core.Options{Alpha: 1.5}); err == nil {
		t.Error("Alpha=1.5 accepted")
	}
}

// TestMultiRSTkNNEdgeTrees pins the degenerate shapes: an empty batch, an
// empty tree, and the single-object tree (whose sole object is always a
// result, for every query of the batch, at one physical read total).
func TestMultiRSTkNNEdgeTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := genObjects(rng, 40, 20, 4)
	tree := buildTree(t, objs, 0, false)
	mo, err := core.MultiRSTkNN(tree, nil, core.Options{Alpha: 0.5})
	if err != nil || len(mo.Outcomes) != 0 {
		t.Fatalf("empty batch: outcomes=%d err=%v", len(mo.Outcomes), err)
	}

	single := buildTree(t, objs[:1], 0, false)
	var batchTracker storage.Tracker
	items := []core.BatchItem{
		{Query: genQuery(rng, 20, 4), K: 2},
		{Query: genQuery(rng, 20, 4), K: 5},
	}
	mo, err = core.MultiRSTkNN(single, items, core.Options{Alpha: 0.5, Tracker: &batchTracker})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range mo.Outcomes {
		if len(o.Results) != 1 || o.Results[0] != objs[0].ID {
			t.Errorf("query %d: results %v, want [%d]", i, o.Results, objs[0].ID)
		}
		if o.Metrics.NodesRead != 1 || o.Metrics.Candidates != 1 {
			t.Errorf("query %d: metrics %+v, want one read and one candidate", i, o.Metrics)
		}
	}
	if mo.Batch.NodesRead != 1 || mo.Batch.SharedHits != 1 {
		t.Errorf("single-object batch metrics %+v, want 1 physical read and 1 shared hit", mo.Batch)
	}
}

// TestMultiRSTkNNCancellation pins fail-fast on a done context.
func TestMultiRSTkNNCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objs := genObjects(rng, 60, 20, 4)
	tree := buildTree(t, objs, 0, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: genQuery(rng, 20, 4), K: 3}},
		core.Options{Alpha: 0.5, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
