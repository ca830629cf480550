package core

import (
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// Shared-traversal batch execution.
//
// Answering N reverse queries independently reads the top levels of the
// IUR-tree N times: every query descends through the same root fan-out,
// and on clustered workloads the frontiers overlap far below that. The
// traversal driver (search, in rstknn.go) therefore runs ONE
// branch-and-bound traversal for the whole batch. Each frontier slot is
// a tree entry together with its *shared groups*: one per (cluster, k)
// that still has undecided queries below the entry. A group's
// contribution list, and the (kNNL, kNNU) it yields, never depend on a
// query — only the Rule 1/2 test does — so the list is built, rebounded
// and refined once, and each step tests every pending query against the
// same bounds. A query leaves a group exactly when a standalone run
// would have pruned or reported it, and is charged the group's work up
// to that point, so per-query Results, Metrics, and kNN bounds are
// bit-identical to N RSTkNN calls — only the work is shared. RSTkNN
// itself is the N = 1 case, run with its node table in standalone mode
// (table.go).
//
// Determinism contract: workers split the frontier by node, never by
// query, and every verdict depends only on its group's own contribution
// list, so results and per-query Metrics are identical at every worker
// count, and Workers:1 is bit-for-bit deterministic.
//
// Tracker attribution rule: MultiRSTkNN fetches each node page (and
// parses its NodeView) at most once per batch, through the traversal's
// shared node table, and charges that physical I/O
// (ChargeRead/ChargeCacheHit) exactly once per distinct node, to the
// batch-level opt.Tracker. Every
// query that consumes a node — including the one whose expansion
// triggered the fetch — records one ChargeSharedRead on its own
// BatchItem.Tracker and counts the node in its Metrics.NodesRead,
// keeping the per-query logical counters identical to a standalone run.

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
	// ExactSims and BoundEvals count the similarity computations the
	// batch physically performed. Shared groups do each bound step once
	// for all their queries, so these are at most the sums of the
	// per-query counters, and below them once queries share a group.
	ExactSims  int64
	BoundEvals int64
	// ScratchPeakBytes is the traversal's scratch high-water mark: the
	// arena chunk bytes its workers held at their peaks, plus its node
	// table (exact at one worker; an upper bound on simultaneous use at
	// more). Counted per chunk, so it is at least the bytes carved.
	ScratchPeakBytes int64
}

// MultiOutcome is the result of one shared-traversal batch: one Outcome
// per BatchItem, in item order, plus the batch-level amortization
// metrics.
type MultiOutcome struct {
	Outcomes []*Outcome
	Batch    BatchMetrics
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
	outs, bm, err := search(t, items, opt, true)
	if err != nil {
		return nil, err
	}
	logical := 0
	for _, o := range outs {
		logical += o.Metrics.NodesRead
	}
	bm.SharedHits = logical - bm.NodesRead
	return &MultiOutcome{Outcomes: outs, Batch: bm}, nil
}
