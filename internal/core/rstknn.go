package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rstknn/internal/iurtree"
	"rstknn/internal/pq"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// RefineStrategy selects which contributor a candidate refines next when
// its contribution list is too coarse to decide.
type RefineStrategy int

const (
	// RefineByMaxUpper refines the contributor with the largest upper
	// bound first — the one most likely to hold real top-k neighbors.
	// This is the plain IUR/CIUR search order.
	RefineByMaxUpper RefineStrategy = iota
	// RefineByEntropy refines the textually most mixed contributor first
	// (highest cluster entropy) among the decision-relevant ones, the
	// paper's E-CIUR optimization. Falls back to RefineByMaxUpper
	// ordering on unclustered trees.
	RefineByEntropy
)

// String implements fmt.Stringer.
func (s RefineStrategy) String() string {
	switch s {
	case RefineByMaxUpper:
		return "max-upper"
	case RefineByEntropy:
		return "entropy"
	default:
		return fmt.Sprintf("RefineStrategy(%d)", int(s))
	}
}

// Options configure an RSTkNN query.
type Options struct {
	// K is the rank cutoff: an object is a result when the query is at
	// least as similar as the object's k-th nearest neighbor.
	K int
	// Alpha weights spatial proximity against textual similarity.
	Alpha float64
	// Sim is the textual measure; nil defaults to Extended Jaccard.
	Sim vector.TextSim
	// Strategy picks the contribution refinement order.
	Strategy RefineStrategy
	// GroupRefine allows up to this many contributor node refinements
	// (each one node read) on an *internal* candidate group before the
	// candidate is expanded into its children. Free rebounds of inherited
	// bounds are always performed; 0 expands as soon as rebounds stop
	// helping.
	GroupRefine int
	// EagerBounds disables the lazy bound inheritance: every contributor
	// of every new candidate group is bounded against the group
	// immediately at expansion time instead of on first use. Exists for
	// the DESIGN.md ablation; lazy (false) is strictly better in
	// practice because pruned groups never pay for tight bounds.
	EagerBounds bool
	// Workers bounds the intra-query parallelism: the candidate frontier
	// is processed in rounds, fanning the per-candidate work (bound
	// tightening, hit/prune decisions, node reads) across this many
	// goroutines. Values <= 0 default to runtime.GOMAXPROCS(0); 1 runs
	// the classic sequential best-first loop; values above GOMAXPROCS
	// are clamped to it (idle goroutines on a saturated CPU only add
	// scheduling overhead). Every verdict depends only on the
	// candidate's own contribution list, so results and Metrics are
	// identical at every worker count.
	Workers int
	// BoundTrace, when non-nil, is invoked with the final kNN bounds of
	// every object-level candidate the moment it is decided. It exists
	// for determinism tests and debugging; it must be safe for
	// concurrent use when Workers != 1.
	BoundTrace func(objID int32, knnl, knnu float64)
	// Ctx, when non-nil, makes the query cancellable: it is checked
	// before every node read (expansions and contributor refinements),
	// and the search aborts with ctx.Err() once it is done.
	Ctx context.Context
	// Tracker is the query's execution context at the storage layer:
	// when non-nil, every node read charges its simulated I/O here as
	// well as on the store's global counters, so per-query cost stays
	// exact while other queries run concurrently.
	Tracker *storage.Tracker
}

// checkCtx returns the context's error, if a context is set and done.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// effectiveWorkers resolves the Workers option to a concrete pool size.
// Requests beyond runtime.GOMAXPROCS(0) are clamped: with every CPU
// already saturated an extra goroutine can only add scheduling overhead,
// never speedup — the pinned 1-CPU baseline measured Workers=2 at 0.93x
// sequential before the clamp. Results are identical either way.
func effectiveWorkers(w int) int {
	mp := runtime.GOMAXPROCS(0)
	if w <= 0 || w > mp {
		return mp
	}
	return w
}

// Metrics reports the work one query performed. Simulated I/O is tracked
// separately on the tree's storage layer. Every counter is a sum of
// per-candidate contributions, so the totals are identical whether the
// candidates were processed sequentially or across a worker pool.
type Metrics struct {
	// NodesRead is the number of tree nodes fetched from storage.
	NodesRead int
	// ExactSims and BoundEvals count similarity computations.
	ExactSims  int64
	BoundEvals int64
	// GroupPruned / GroupReported count objects decided at node
	// granularity (never visited individually) by the two pruning rules.
	GroupPruned   int
	GroupReported int
	// Candidates is the number of object-level candidates examined.
	Candidates int
	// Refinements counts contributor refinements (node reads replacing a
	// contributor with its children); Rebounds counts the free, CPU-only
	// re-tightenings of inherited bounds.
	Refinements int
	Rebounds    int
}

// add accumulates o into m.
func (m *Metrics) add(o *Metrics) {
	m.NodesRead += o.NodesRead
	m.ExactSims += o.ExactSims
	m.BoundEvals += o.BoundEvals
	m.GroupPruned += o.GroupPruned
	m.GroupReported += o.GroupReported
	m.Candidates += o.Candidates
	m.Refinements += o.Refinements
	m.Rebounds += o.Rebounds
}

// Outcome is the result of one RSTkNN query.
type Outcome struct {
	// Results holds the IDs of all objects whose top-k would include the
	// query, sorted ascending for determinism.
	Results []int32
	Metrics Metrics
}

// group is one decision unit: the objects of one text cluster below the
// candidate's entry (or all of them, cluster = -1, on unclustered trees).
// Scoping decisions to (entry, cluster) is what makes the CIUR-tree
// effective: the candidate-side textual envelope is the cluster's, not
// the node's mixture, so both the query bounds and the kNN bounds
// tighten dramatically for textually clustered data.
type group struct {
	cluster int32
	env     vector.Envelope
	count   int32
	q       interval
	cl      contributionList
}

// candidate is a tree entry with its still-undecided groups. Keeping the
// groups of one entry together means expansion reads the node exactly
// once no matter how many clusters remain undecided.
type candidate struct {
	entry iurtree.Entry
	// idx is the entry's position within its parent node. Single-query
	// search never consults it; the shared-traversal batch driver uses it
	// as the merge key that folds the per-query children of one expanded
	// node back into one frontier slot per child (see batch.go).
	idx    int
	groups []*group
}

// queued is a candidate with its queue priority (the best query upper
// bound among its groups).
type queued struct {
	c   *candidate
	pri float64
}

// RSTkNN answers the reverse spatial-textual k nearest neighbor query on
// a sealed IUR-tree or CIUR-tree: it returns every indexed object o such
// that SimST(o, q) >= SimST(o, o_k), where o_k is o's k-th most similar
// indexed object (excluding o itself). Objects with fewer than k
// neighbors are always results.
func RSTkNN(t *iurtree.Snapshot, q Query, opt Options) (*Outcome, error) {
	if opt.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return nil, fmt.Errorf("core: Alpha must be in [0,1], got %g", opt.Alpha)
	}
	if err := checkCtx(opt.Ctx); err != nil {
		return nil, err
	}
	out := &Outcome{}
	if t.Len() == 0 {
		return out, nil
	}
	s := &searcher{
		tree:    t,
		opt:     opt,
		out:     out,
		workers: effectiveWorkers(opt.Workers),
	}
	if err := s.run(&q); err != nil {
		return nil, err
	}
	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i] < out.Results[j] })
	return out, nil
}

// searcher coordinates one query: it seeds the candidate frontier, drives
// it to exhaustion (sequentially or in parallel rounds), and merges the
// per-worker tallies into the Outcome.
type searcher struct {
	tree    *iurtree.Snapshot
	opt     Options
	out     *Outcome
	workers int
}

// worker owns everything one goroutine touches while deciding candidates:
// a private Scorer (so similarity counters need no synchronization), a
// pooled scratch, and local result/metric accumulators. All cross-worker
// aggregates are sums or sets, so the merge is order-independent and the
// outcome identical to a sequential run.
type worker struct {
	s       *searcher
	scorer  Scorer
	scratch *scratch
	metrics Metrics
	results []int32

	// Per-query lane state. Single-query search fixes k and trace from
	// the searcher's Options at newWorker time; the shared-traversal
	// batch driver retargets all four fields per active query (see
	// batchWorker.begin), so the decision machinery below never consults
	// opt.K or opt.BoundTrace directly.
	k     int
	trace func(objID int32, knnl, knnu float64)
	// qtr is the per-query tracker shared reads are attributed to in
	// batch mode; single-query mode charges s.opt.Tracker via the store.
	qtr *storage.Tracker
	// batch, when non-nil, routes every node read through the batch's
	// once-per-node view table instead of the store.
	batch *batchTable
}

// newWorker prepares one worker for the searcher.
func (s *searcher) newWorker() *worker {
	sc := getScratch()
	sc.sizeHist(s.tree.NumClusters())
	return &worker{
		s:       s,
		scorer:  *NewScorer(s.opt.Alpha, s.tree.MaxD(), s.opt.Sim),
		scratch: sc,
		k:       s.opt.K,
		trace:   s.opt.BoundTrace,
	}
}

// close merges the worker's tallies into the outcome and recycles its
// scratch. Call only after every candidate referencing the scratch's
// arenas is decided.
func (w *worker) close() {
	w.metrics.ExactSims += w.scorer.ExactCount
	w.metrics.BoundEvals += w.scorer.BoundCount
	w.s.out.Metrics.add(&w.metrics)
	w.s.out.Results = append(w.s.out.Results, w.results...)
	w.scratch.release()
	w.scratch = nil
}

// readView fetches a node through the zero-copy view path: same
// simulated I/O and cancellation semantics as an eager read, but no
// *Node materialization — fixed entry fields come straight from the page
// bytes and the textual payload from the snapshot's bound cache. Pair
// every successful read with doneView to recycle the offset buffer.
func (w *worker) readView(id storage.NodeID) (iurtree.NodeView, error) {
	if err := checkCtx(w.s.opt.Ctx); err != nil {
		return iurtree.NodeView{}, err
	}
	if w.batch != nil {
		// Shared-traversal batch: the table fetches each node at most
		// once per batch (charging the physical I/O to the batch
		// tracker); this query records the logical read — NodesRead stays
		// bit-identical to an independent run — plus one shared-read
		// attribution on its own tracker.
		v, err := w.batch.load(id)
		if err != nil {
			return iurtree.NodeView{}, err
		}
		w.qtr.ChargeSharedRead()
		w.metrics.NodesRead++
		return v, nil
	}
	v, err := w.s.tree.ReadViewTracked(id, w.s.opt.Tracker, w.scratch.getViewBuf())
	if err != nil {
		return iurtree.NodeView{}, err
	}
	w.metrics.NodesRead++
	return v, nil
}

// doneView recycles a view's offset buffer once no accessor will be
// called on it again. Batch-table views keep their buffers — the table
// owns them for the lifetime of the batch, and other queries may still
// read through the same view.
func (w *worker) doneView(v *iurtree.NodeView) {
	if w.batch != nil {
		return
	}
	w.scratch.putViewBuf(v.RecycleBuf())
}

// run seeds the frontier with the root's children and drains it.
func (s *searcher) run(q *Query) error {
	root := s.tree.RootEntry()
	w0 := s.newWorker()
	if root.Count == 1 {
		// A single object: it has no neighbors, so the k-th NN similarity
		// is -Inf and the object is always a result.
		v, err := w0.readView(root.Child)
		if err != nil {
			w0.close()
			return err
		}
		w0.metrics.Candidates++
		w0.results = append(w0.results, v.EntryObjID(0))
		w0.doneView(&v)
		w0.close()
		return nil
	}

	// Seed: the root's children, every cluster group undecided, each
	// child contributing to the others. The pseudo parent groups carry
	// empty contribution lists.
	rootView, err := w0.readView(root.Child)
	if err != nil {
		w0.close()
		return err
	}
	rootEntries := rootView.AppendEntries(w0.scratch.ents.alloc(rootView.Len()))
	w0.doneView(&rootView)
	seeds := make([]*group, 0, len(root.Clusters)+1)
	if s.tree.Clustered() && len(root.Clusters) > 0 {
		for _, cs := range root.Clusters {
			seeds = append(seeds, &group{cluster: cs.Cluster})
		}
	} else {
		seeds = append(seeds, &group{cluster: -1})
	}
	first := w0.buildChildren(&root, rootEntries, seeds, q)

	if s.workers == 1 {
		err = s.runSequential(w0, first, q)
		w0.close()
		return err
	}
	return s.runRounds(w0, first, q)
}

// runSequential is the classic best-first loop: one candidate at a time,
// popped in descending query-upper-bound order.
func (s *searcher) runSequential(w *worker, first []queued, q *Query) error {
	queue := pq.NewMax[*candidate]()
	for _, qc := range first {
		queue.Push(qc.c, qc.pri)
	}
	for !queue.Empty() {
		c, _ := queue.Pop()
		children, err := w.process(c, q)
		if err != nil {
			return err
		}
		for _, qc := range children {
			queue.Push(qc.c, qc.pri)
		}
	}
	return nil
}

// minFanoutRound is the smallest frontier size a round fans out across
// the worker pool; smaller rounds run inline on worker 0. The tail of a
// search is many rounds of a handful of candidates each, and paying a
// goroutine spawn plus a barrier per tiny round is why the pinned
// baseline showed Workers=2 running 0.93x sequential on a 1-CPU machine.
const minFanoutRound = 8

// runRounds is the intra-query parallel engine: the whole frontier is
// processed per round, with candidates fanned across the worker pool.
// Every group's verdict depends only on its own contribution list — never
// on another candidate or on processing order — so the only coordination
// is the round barrier, and the merged outcome is bit-identical to the
// sequential engine's. w0 (which already carries the seed-phase tallies)
// serves as worker 0.
func (s *searcher) runRounds(w0 *worker, first []queued, q *Query) error {
	ws := make([]*worker, s.workers)
	ws[0] = w0
	for i := 1; i < len(ws); i++ {
		ws[i] = s.newWorker()
	}
	// Workers are closed (merging tallies, recycling arenas) only after
	// the frontier is fully drained: a candidate built by one worker may
	// reference arena-backed bounds owned by another until it is decided.
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()

	round := first
	var firstErr error
	for len(round) > 0 && firstErr == nil {
		children := make([][]queued, len(round))
		errs := make([]error, len(round))
		if len(round) < minFanoutRound {
			// Small frontier: goroutine spawn plus the round barrier cost
			// more than the candidates' work, so run them inline on
			// worker 0. Verdicts depend only on each candidate's own
			// contribution list, so this changes wall-clock only.
			for j := range round {
				children[j], errs[j] = ws[0].process(round[j].c, q)
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
				go func(w *worker) {
					defer wg.Done()
					for {
						j := int(next.Add(1)) - 1
						if j >= len(round) {
							return
						}
						children[j], errs[j] = w.process(round[j].c, q)
					}
				}(ws[i])
			}
			wg.Wait()
		}
		// Deterministic merge: children enter the next round in frontier
		// order. (Order does not affect verdicts; it keeps runs
		// reproducible for debugging.)
		var next []queued
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

// clusterGroupOf returns the child's cluster summary matching the parent
// group's cluster, or nil when the child holds no such objects. For
// whole-node groups (cluster -1) it synthesizes a summary covering the
// entire entry.
func clusterGroupOf(e *iurtree.Entry, cluster int32) *iurtree.ClusterSummary {
	if cluster < 0 {
		return &iurtree.ClusterSummary{Cluster: -1, Count: e.Count, Env: e.Env}
	}
	for i := range e.Clusters {
		if e.Clusters[i].Cluster == cluster {
			return &e.Clusters[i]
		}
	}
	return nil
}

// contribHeadroom is the arena growth slack reserved on every new
// contribution list so in-place refinement appends (which replace one
// contributor with a node's children) usually stay inside the carve.
const contribHeadroom = 8

// buildChildren turns the entries of an expanded node into candidates.
// Each surviving parent group is projected onto every child that holds
// objects of its cluster; the child group inherits the parent group's
// contribution list and gains the child's siblings as contributors.
// Inherited and sibling bounds are kept at parent/node granularity and
// marked stale — valid for the group because its objects are a subset of
// what the bounds cover — and are tightened lazily when the group is
// processed, keeping expansion cost linear in the fan-out.
//
// children must be stable storage (an ents carve): every sibling
// contributor points into it, and inherited contributors keep pointing
// wherever the parent group's did, so no Entry is copied per group.
//
// The returned candidates (and the arena-backed bounds they reference)
// are only published to other workers through the round barrier, so the
// scratch-owning worker is the sole writer until then.
func (w *worker) buildChildren(parent *iurtree.Entry, children []iurtree.Entry, parentGroups []*group, q *Query) []queued {
	parentSide := sideOf(parent)
	sibParts := w.scratch.sibParts[:0] // lazily filled once, shared by all groups
	var out []queued
	for i := range children {
		child := &children[i]
		var groups []*group
		for _, pg := range parentGroups {
			cs := clusterGroupOf(child, pg.cluster)
			if cs == nil || cs.Count == 0 {
				continue
			}
			if len(sibParts) == 0 {
				for j := range children {
					sibParts = append(sibParts, w.scorer.entryBoundsInto(w.scratch, parentSide, &children[j]))
				}
			}
			g := &group{
				cluster: pg.cluster,
				env:     cs.Env,
				count:   cs.Count,
			}
			g.q = w.scorer.queryBounds(side{rect: child.Rect, env: cs.Env, exact: child.IsObject()}, q)
			g.cl.self = w.scorer.selfPartsInto(w.scratch, child, pg.cluster, cs.Env, cs.Count)
			g.cl.contributors = allocContribs(w.scratch, len(pg.cl.contributors)+len(children)-1, contribHeadroom)
			for j := range pg.cl.contributors {
				g.cl.contributors = append(g.cl.contributors, contributor{
					entry: pg.cl.contributors[j].entry,
					parts: pg.cl.contributors[j].parts,
					stale: true,
				})
			}
			for j := range children {
				if j == i {
					continue
				}
				g.cl.contributors = append(g.cl.contributors, contributor{
					entry: &children[j],
					parts: sibParts[j],
					stale: true,
				})
			}
			if w.s.opt.EagerBounds {
				gSide := side{rect: child.Rect, env: cs.Env, exact: child.IsObject()}
				w.reboundStale(gSide, &g.cl)
			}
			groups = append(groups, g)
		}
		if len(groups) == 0 {
			continue
		}
		best := negInf
		for _, g := range groups {
			if g.q.hi > best {
				best = g.q.hi
			}
		}
		out = append(out, queued{c: &candidate{entry: *child, idx: i, groups: groups}, pri: best})
	}
	w.scratch.sibParts = sibParts[:0]
	return out
}

// verdict is the outcome of deciding one group.
type verdict int

const (
	verdictPruned verdict = iota
	verdictReported
	verdictExpand
)

// process drives every group of a candidate to a decision, expanding the
// entry (one node read) for the groups that stay undecided, and returns
// the resulting child candidates.
func (w *worker) process(c *candidate, q *Query) ([]queued, error) {
	var pending []*group
	for _, g := range c.groups {
		v, err := w.decideGroup(c, g)
		if err != nil {
			return nil, err
		}
		if v == verdictExpand {
			pending = append(pending, g)
			continue
		}
		if err := w.settle(c, g, v); err != nil {
			return nil, err
		}
	}
	if len(pending) == 0 {
		return nil, nil
	}
	v, err := w.readView(c.entry.Child)
	if err != nil {
		return nil, err
	}
	children := v.AppendEntries(w.scratch.ents.alloc(v.Len()))
	w.doneView(&v)
	return w.buildChildren(&c.entry, children, pending, q), nil
}

// settle applies one decided group's verdict: the metrics bookkeeping,
// result emission, and subtree collection shared by the single-query and
// batch drivers, so their accounting is bit-identical by construction.
func (w *worker) settle(c *candidate, g *group, v verdict) error {
	switch v {
	case verdictPruned:
		if c.entry.IsObject() {
			w.metrics.Candidates++
		} else {
			w.metrics.GroupPruned += int(g.count)
		}
	case verdictReported:
		if c.entry.IsObject() {
			w.metrics.Candidates++
			w.results = append(w.results, c.entry.ObjID)
		} else {
			w.metrics.GroupReported += int(g.count)
			return w.collect(&c.entry, g.cluster)
		}
	}
	return nil
}

// decideGroup evaluates one group against the two pruning rules,
// tightening its contribution list in two tiers: *rebounds* recompute the
// stale inherited bounds against this group (pure CPU), *refinements*
// replace a contributor node with its children (one node read each).
// Object-level groups always reach a decision; internal groups may return
// verdictExpand once rebounds and the refinement budget are exhausted.
func (w *worker) decideGroup(c *candidate, g *group) (verdict, error) {
	groupBudget := w.s.opt.GroupRefine
	gSide := side{rect: c.entry.Rect, env: g.env, exact: c.entry.IsObject()}
	sc := w.scratch
	for {
		sc.selLo.reset(w.k)
		sc.selHi.reset(w.k)
		g.cl.knnBoundsInto(&sc.selLo, &sc.selHi)
		knnl, knnu := sc.selLo.kth(), sc.selHi.kth()
		if g.q.hi < knnl {
			// Rule 1: the query can never reach any member's top-k.
			if c.entry.IsObject() && w.trace != nil {
				w.trace(c.entry.ObjID, knnl, knnu)
			}
			return verdictPruned, nil
		}
		if g.q.lo >= knnu {
			// Rule 2: the query ranks within every member's top-k.
			if c.entry.IsObject() && w.trace != nil {
				w.trace(c.entry.ObjID, knnl, knnu)
			}
			return verdictReported, nil
		}
		// Tier 1: make every inherited bound group-relative (pure CPU).
		// Loose ancestor-level lower bounds keep kNNL artificially low,
		// so all of them are tightened in one pass the first time the
		// group turns out to be undecided.
		if w.reboundStale(gSide, &g.cl) {
			continue
		}
		idx := g.cl.refinable(w.s.opt.Strategy, sc.hist, knnu)
		if c.entry.IsObject() {
			// Undecided object: refine its contribution list. The loop
			// is guaranteed to decide once every contributor is a fresh
			// object, because then knnl == knnu and the two rules are
			// exhaustive.
			if idx < 0 {
				return 0, fmt.Errorf("core: undecidable object %d with exact bounds [%g, %g], query %g",
					c.entry.ObjID, knnl, knnu, g.q.lo)
			}
			if err := w.refine(gSide, &g.cl, idx); err != nil {
				return 0, err
			}
			continue
		}
		if groupBudget > 0 && idx >= 0 {
			groupBudget--
			if err := w.refine(gSide, &g.cl, idx); err != nil {
				return 0, err
			}
			continue
		}
		return verdictExpand, nil
	}
}

// reboundStale recomputes every stale contributor's bounds against the
// group itself (they were inherited from an ancestor). No I/O. Returns
// true when anything changed. The fresh parts replace the inherited slice
// (which may be shared with sibling groups) — they never mutate it.
func (w *worker) reboundStale(gSide side, cl *contributionList) bool {
	changed := false
	for i := range cl.contributors {
		ct := &cl.contributors[i]
		if !ct.stale {
			continue
		}
		ct.parts = w.scorer.entryBoundsInto(w.scratch, gSide, ct.entry)
		ct.stale = false
		w.metrics.Rebounds++
		changed = true
	}
	return changed
}

// refine replaces contributor idx with its children, re-bounded against
// the group. The children are materialized into the ents arena, where
// the new contributors point; the replacement buffer is scratch-owned:
// replace() copies it into the contribution list, so it is reusable
// immediately.
func (w *worker) refine(gSide side, cl *contributionList, idx int) error {
	v, err := w.readView(cl.contributors[idx].entry.Child)
	if err != nil {
		return err
	}
	w.metrics.Refinements++
	children := v.AppendEntries(w.scratch.ents.alloc(v.Len()))
	w.doneView(&v)
	repl := w.scratch.repl[:0]
	for i := range children {
		repl = append(repl, contributor{
			entry: &children[i],
			parts: w.scorer.entryBoundsInto(w.scratch, gSide, &children[i]),
		})
	}
	cl.replace(w.scratch, idx, repl)
	w.scratch.repl = repl[:0]
	return nil
}

// collect appends the object IDs below e belonging to the given cluster
// (every object when cluster < 0) to the result set, reading the subtree
// (the I/O is charged like any other access).
func (w *worker) collect(e *iurtree.Entry, cluster int32) error {
	if e.IsObject() {
		w.results = append(w.results, e.ObjID)
		return nil
	}
	return w.collectNode(e.Child, cluster)
}

// collectNode is collect below one node, via views: object IDs are read
// straight off the page bytes, and only entries passing the cluster
// filter recurse. The parent's view stays live across the recursion,
// which is why the scratch keeps a stack of offset buffers.
func (w *worker) collectNode(id storage.NodeID, cluster int32) error {
	v, err := w.readView(id)
	if err != nil {
		return err
	}
	n := v.Len()
	for i := 0; i < n; i++ {
		if cluster >= 0 && clusterCountIn(v.EntryClusters(i), cluster) == 0 {
			continue
		}
		if v.EntryIsObject(i) {
			w.results = append(w.results, v.EntryObjID(i))
			continue
		}
		if err := w.collectNode(v.EntryChild(i), cluster); err != nil {
			w.doneView(&v)
			return err
		}
	}
	w.doneView(&v)
	return nil
}

// clusterCountIn returns the number of objects of the given cluster
// among the summaries.
func clusterCountIn(clusters []iurtree.ClusterSummary, cluster int32) int32 {
	for i := range clusters {
		if clusters[i].Cluster == cluster {
			return clusters[i].Count
		}
	}
	return 0
}
