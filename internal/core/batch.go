package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// Shared-traversal batch execution.
//
// Answering N reverse queries independently reads the top levels of the
// IUR-tree N times: every query descends through the same root fan-out,
// and on clustered workloads the frontiers overlap far below that. The
// multi-query driver in this file runs ONE branch-and-bound traversal for
// the whole batch instead. Each frontier slot is a tree entry together
// with its *active-query set* — the batch queries that still have
// undecided groups below that entry. A node page is fetched (and its
// NodeView parsed) at most once per batch, through a once-per-node view
// table; the fetched node is then scored against every active query, and
// each query's membership is pruned independently via the same
// Scorer/contributionList/kthSelector machinery the single-query search
// uses. Queries drop out of a subtree exactly when an independent run
// would have pruned or reported it, so per-query Results, Metrics, and
// kNN bounds are bit-identical to N independent RSTkNN calls — only the
// physical I/O is amortized.
//
// Determinism contract: the driver keeps the round-based fan-out of the
// single-query engine — workers split the frontier by node, never by
// query — and every verdict depends only on the (query, group)'s own
// contribution list, so results and per-query Metrics are identical at
// every worker count, and Workers:1 is bit-for-bit deterministic.
//
// Tracker attribution rule: physical I/O (ChargeRead/ChargeCacheHit) is
// charged exactly once per distinct node, to the batch-level
// opt.Tracker. Every query that consumes a node — including the one
// whose expansion triggered the fetch — records one ChargeSharedRead on
// its own BatchItem.Tracker and counts the node in its Metrics.NodesRead,
// keeping the per-query logical counters identical to an independent run.

// BatchItem is one query of a shared-traversal batch: the per-query
// inputs that vary across the batch, while everything shared (alpha,
// similarity measure, refinement strategy, worker pool, context, the
// batch-level tracker) comes from the Options passed to MultiRSTkNN.
type BatchItem struct {
	Query Query
	// K is this query's rank cutoff (Options.K is ignored by
	// MultiRSTkNN).
	K int
	// BoundTrace, when non-nil, receives this query's final kNN bounds
	// for every object-level candidate, exactly as Options.BoundTrace
	// does for RSTkNN. It must be safe for concurrent use when the batch
	// runs with more than one worker.
	BoundTrace func(objID int32, knnl, knnu float64)
	// Tracker, when non-nil, receives this query's shared-read
	// attributions (one ChargeSharedRead per logical node read).
	Tracker *storage.Tracker
}

// BatchMetrics reports the batch-level amortization the shared traversal
// achieved. Per-query work lives in the per-query Outcomes.
type BatchMetrics struct {
	// NodesRead is the number of distinct nodes physically fetched for
	// the whole batch — the I/O an independent run would multiply.
	NodesRead int
	// SharedHits counts the logical node reads served by a node the
	// batch had already fetched: the sum of per-query
	// Metrics.NodesRead minus NodesRead.
	SharedHits int
}

// MultiOutcome is the result of one shared-traversal batch: one Outcome
// per BatchItem, in item order, plus the batch-level amortization
// metrics.
type MultiOutcome struct {
	Outcomes []*Outcome
	Batch    BatchMetrics
}

// batchTable is the once-per-node view table of one batch: the first
// query to need a node fetches it (charging the physical I/O to the
// batch tracker) and every later consumer gets the already-parsed view.
// Views and their offset buffers are owned by the table for the batch's
// lifetime, so they may be shared across worker goroutines — NodeView
// accessors are read-only.
type batchTable struct {
	tree *iurtree.Snapshot
	tr   *storage.Tracker
	phys atomic.Int64

	mu    sync.Mutex
	nodes map[storage.NodeID]*batchSlot
}

// batchSlot is one node's entry in the table. The sync.Once serializes
// the fetch without holding the table mutex across I/O.
type batchSlot struct {
	once sync.Once
	view iurtree.NodeView
	err  error
}

func newBatchTable(tree *iurtree.Snapshot, tr *storage.Tracker) *batchTable {
	return &batchTable{tree: tree, tr: tr, nodes: make(map[storage.NodeID]*batchSlot)}
}

// load returns the node's shared view, fetching it on first use.
func (b *batchTable) load(id storage.NodeID) (iurtree.NodeView, error) {
	b.mu.Lock()
	s := b.nodes[id]
	if s == nil {
		s = &batchSlot{}
		b.nodes[id] = s
	}
	b.mu.Unlock()
	s.once.Do(func() {
		b.phys.Add(1)
		s.view, s.err = b.tree.ReadViewTracked(id, b.tr, nil)
	})
	return s.view, s.err
}

// activeQuery is one batch query's stake in a frontier slot: its index
// in the batch plus its still-undecided groups below the slot's entry.
type activeQuery struct {
	qi     int
	groups []*group
}

// batchCandidate is one frontier slot of the shared traversal: a tree
// entry plus the queries still active on it, kept in ascending query
// order for determinism.
type batchCandidate struct {
	entry  iurtree.Entry
	idx    int
	active []activeQuery
}

// lane is one worker's private accumulator for one query. Totals are
// order-independent sums, so adding the lanes of all workers yields the
// same Metrics an independent run would report.
type lane struct {
	metrics Metrics
	results []int32
}

// batchWorker wraps one search worker with per-query lanes. Before any
// per-query work (deciding groups, charging a logical read, building
// children) it retargets the worker's lane state to that query via
// begin, and parks the accumulators back via end — so the entire
// single-query decision machinery runs unmodified in between.
type batchWorker struct {
	w     *worker
	items []BatchItem
	lanes []lane
	// e0/b0 snapshot the worker's scorer counters at begin so end can
	// attribute the delta to the active query's lane.
	e0, b0 int64
}

func newBatchWorker(s *searcher, table *batchTable, items []BatchItem) *batchWorker {
	w := s.newWorker()
	w.batch = table
	return &batchWorker{w: w, items: items, lanes: make([]lane, len(items))}
}

// begin retargets the worker at query qi's lane.
//
//rstknn:hotpath per-query lane switch in the shared-traversal inner loop
func (bw *batchWorker) begin(qi int) {
	it := &bw.items[qi]
	w := bw.w
	w.k = it.K
	w.trace = it.BoundTrace
	w.qtr = it.Tracker
	ln := &bw.lanes[qi]
	w.metrics = ln.metrics
	w.results = ln.results
	bw.e0 = w.scorer.ExactCount
	bw.b0 = w.scorer.BoundCount
}

// end parks the worker's accumulators back into query qi's lane,
// folding the scorer-counter delta since begin into the lane's
// similarity tallies.
//
//rstknn:hotpath per-query lane switch in the shared-traversal inner loop
func (bw *batchWorker) end(qi int) {
	w := bw.w
	ln := &bw.lanes[qi]
	ln.metrics = w.metrics
	ln.metrics.ExactSims += w.scorer.ExactCount - bw.e0
	ln.metrics.BoundEvals += w.scorer.BoundCount - bw.b0
	bw.e0 = w.scorer.ExactCount
	bw.b0 = w.scorer.BoundCount
	ln.results = w.results
}

// release recycles the worker's scratch. Call only after the frontier is
// fully drained AND the lanes have been harvested: live candidates of
// any query may reference arena-backed bounds owned by this scratch.
func (bw *batchWorker) release() {
	bw.w.scratch.release()
	bw.w.scratch = nil
}

// process drives one frontier slot: every active query's groups are
// decided (or kept pending), then — if any query still needs the
// subtree — the entry's node is expanded once and each pending query's
// children are merged back into shared child slots by entry index.
func (bw *batchWorker) process(bc *batchCandidate) ([]*batchCandidate, error) {
	c := candidate{entry: bc.entry, idx: bc.idx}
	var pending []activeQuery
	for _, aq := range bc.active {
		bw.begin(aq.qi)
		var pend []*group
		for _, g := range aq.groups {
			v, err := bw.w.decideGroup(&c, g)
			if err != nil {
				return nil, err
			}
			if v == verdictExpand {
				pend = append(pend, g)
				continue
			}
			if err := bw.w.settle(&c, g, v); err != nil {
				return nil, err
			}
		}
		bw.end(aq.qi)
		if len(pend) > 0 {
			pending = append(pending, activeQuery{qi: aq.qi, groups: pend})
		}
	}
	if len(pending) == 0 {
		return nil, nil
	}
	// Expansion: every pending query charges one logical read (keeping
	// its NodesRead identical to an independent run); the table fetches
	// the node at most once for the whole batch.
	var v iurtree.NodeView
	for _, p := range pending {
		bw.begin(p.qi)
		var err error
		v, err = bw.w.readView(bc.entry.Child)
		bw.end(p.qi)
		if err != nil {
			return nil, err
		}
	}
	// Materialize the fan-out once per slot into the ents arena: every
	// pending query's buildChildren points its sibling contributors at
	// this one stable, read-only copy (whose Env/Clusters reference the
	// shared cached decodes), so no query copies an Entry of its own.
	children := v.AppendEntries(bw.w.scratch.ents.alloc(v.Len()))
	slots := make([]*batchCandidate, len(children))
	for _, p := range pending {
		bw.begin(p.qi)
		qcs := bw.w.buildChildren(&bc.entry, children, p.groups, &bw.items[p.qi].Query)
		bw.end(p.qi)
		for _, qc := range qcs {
			slot := slots[qc.c.idx]
			if slot == nil {
				slot = &batchCandidate{entry: qc.c.entry, idx: qc.c.idx}
				slots[qc.c.idx] = slot
			}
			slot.active = append(slot.active, activeQuery{qi: p.qi, groups: qc.c.groups})
		}
	}
	// Children enter the next round in entry order, active sets in
	// ascending query order (pending preserves it) — deterministic
	// regardless of which worker expanded the slot.
	out := make([]*batchCandidate, 0, len(slots))
	for _, slot := range slots {
		if slot != nil {
			out = append(out, slot)
		}
	}
	return out, nil
}

// MultiRSTkNN answers a batch of reverse spatial-textual k nearest
// neighbor queries in one shared tree traversal. Per-query inputs (the
// query point/vector, K, BoundTrace, the attribution Tracker) come from
// the items; everything else — Alpha, Sim, Strategy, GroupRefine,
// EagerBounds, Workers, Ctx, and the batch-level Tracker the physical
// I/O is charged to — comes from opt (opt.K and opt.BoundTrace are
// ignored). The returned Outcomes are index-aligned with items and
// bit-identical — Results, Metrics, and traced kNN bounds — to
// independent RSTkNN calls with the same per-query options, at every
// worker count.
func MultiRSTkNN(t *iurtree.Snapshot, items []BatchItem, opt Options) (*MultiOutcome, error) {
	for i := range items {
		if items[i].K <= 0 {
			return nil, fmt.Errorf("core: item %d: K must be positive, got %d", i, items[i].K)
		}
	}
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return nil, fmt.Errorf("core: Alpha must be in [0,1], got %g", opt.Alpha)
	}
	if err := checkCtx(opt.Ctx); err != nil {
		return nil, err
	}
	mo := &MultiOutcome{Outcomes: make([]*Outcome, len(items))}
	for i := range mo.Outcomes {
		mo.Outcomes[i] = &Outcome{}
	}
	if len(items) == 0 || t.Len() == 0 {
		return mo, nil
	}

	s := &searcher{tree: t, opt: opt, workers: effectiveWorkers(opt.Workers)}
	table := newBatchTable(t, opt.Tracker)
	bws := make([]*batchWorker, s.workers)
	for i := range bws {
		bws[i] = newBatchWorker(s, table, items)
	}
	// Scratches are recycled only after the frontier is fully drained
	// and every lane harvested — candidates built by one worker may
	// reference arena-backed bounds owned by another until decided.
	defer func() {
		for _, bw := range bws {
			bw.release()
		}
	}()

	frontier, err := seedBatch(bws[0], items)
	if err != nil {
		return nil, err
	}
	if err := runBatchRounds(s, bws, frontier); err != nil {
		return nil, err
	}

	for _, bw := range bws {
		for qi := range items {
			mo.Outcomes[qi].Metrics.add(&bw.lanes[qi].metrics)
			mo.Outcomes[qi].Results = append(mo.Outcomes[qi].Results, bw.lanes[qi].results...)
		}
	}
	logical := 0
	for _, o := range mo.Outcomes {
		sort.Slice(o.Results, func(i, j int) bool { return o.Results[i] < o.Results[j] })
		logical += o.Metrics.NodesRead
	}
	mo.Batch.NodesRead = int(table.phys.Load())
	mo.Batch.SharedHits = logical - mo.Batch.NodesRead
	return mo, nil
}

// seedBatch mirrors searcher.run's seed phase for every query at once:
// the root's child node is fetched once, each query charges its logical
// read, and the per-query seed candidates are merged into shared
// frontier slots by entry index.
func seedBatch(bw *batchWorker, items []BatchItem) ([]*batchCandidate, error) {
	s := bw.w.s
	root := s.tree.RootEntry()
	if root.Count == 1 {
		// A single object: no neighbors, k-th NN similarity -Inf, always
		// a result — for every query of the batch.
		for qi := range items {
			bw.begin(qi)
			v, err := bw.w.readView(root.Child)
			if err != nil {
				bw.end(qi)
				return nil, err
			}
			bw.w.metrics.Candidates++
			bw.w.results = append(bw.w.results, v.EntryObjID(0))
			bw.end(qi)
		}
		return nil, nil
	}

	var rootView iurtree.NodeView
	for qi := range items {
		bw.begin(qi)
		var err error
		rootView, err = bw.w.readView(root.Child)
		bw.end(qi)
		if err != nil {
			return nil, err
		}
	}
	rootEntries := rootView.AppendEntries(bw.w.scratch.ents.alloc(rootView.Len()))
	// The pseudo parent groups carry empty contribution lists and are
	// never mutated by buildChildren, so one seed slice serves every
	// query.
	seeds := make([]*group, 0, len(root.Clusters)+1)
	if s.tree.Clustered() && len(root.Clusters) > 0 {
		for _, cs := range root.Clusters {
			seeds = append(seeds, &group{cluster: cs.Cluster})
		}
	} else {
		seeds = append(seeds, &group{cluster: -1})
	}
	slots := make([]*batchCandidate, len(rootEntries))
	for qi := range items {
		bw.begin(qi)
		qcs := bw.w.buildChildren(&root, rootEntries, seeds, &items[qi].Query)
		bw.end(qi)
		for _, qc := range qcs {
			slot := slots[qc.c.idx]
			if slot == nil {
				slot = &batchCandidate{entry: qc.c.entry, idx: qc.c.idx}
				slots[qc.c.idx] = slot
			}
			slot.active = append(slot.active, activeQuery{qi: qi, groups: qc.c.groups})
		}
	}
	out := make([]*batchCandidate, 0, len(slots))
	for _, slot := range slots {
		if slot != nil {
			out = append(out, slot)
		}
	}
	return out, nil
}

// runBatchRounds drains the shared frontier exactly like the
// single-query runRounds: whole frontier per round, slots fanned across
// the worker pool by an atomic counter, children merged back in frontier
// order. Every (query, group) verdict depends only on its own
// contribution list, so the merged outcome is identical at every worker
// count; the frontier-order merge keeps runs reproducible.
func runBatchRounds(s *searcher, bws []*batchWorker, first []*batchCandidate) error {
	round := first
	var firstErr error
	for len(round) > 0 && firstErr == nil {
		children := make([][]*batchCandidate, len(round))
		errs := make([]error, len(round))
		if s.workers == 1 || len(round) < minFanoutRound {
			// Small frontier (or a sequential pool): run inline on worker
			// 0 — verdicts are order-independent, so this changes
			// wall-clock only.
			for j := range round {
				children[j], errs[j] = bws[0].process(round[j])
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			spawn := s.workers
			if spawn > len(round) {
				spawn = len(round)
			}
			for i := 0; i < spawn; i++ {
				wg.Add(1)
				go func(bw *batchWorker) {
					defer wg.Done()
					for {
						j := int(next.Add(1)) - 1
						if j >= len(round) {
							return
						}
						children[j], errs[j] = bw.process(round[j])
					}
				}(bws[i])
			}
			wg.Wait()
		}
		var next []*batchCandidate
		for i := range children {
			if errs[i] != nil && firstErr == nil {
				firstErr = errs[i]
			}
			next = append(next, children[i]...)
		}
		round = next
	}
	return firstErr
}
