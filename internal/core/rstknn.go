package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rstknn/internal/iurtree"
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
	// Workers bounds the traversal's parallelism: the candidate frontier
	// is processed in rounds, fanning the per-candidate work (bound
	// tightening, hit/prune decisions, node reads) across this many
	// goroutines. Values <= 0 default to runtime.GOMAXPROCS(0); values
	// above GOMAXPROCS are clamped to it (idle goroutines on a saturated
	// CPU only add scheduling overhead), and 1 runs every round inline.
	// Every verdict depends only on the candidate's own contribution
	// list, so results and Metrics are identical at every worker count.
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
	// ScratchPeakBytes is the scratch high-water mark of the traversal
	// that answered the query (for a batch item, the whole batch's; see
	// BatchMetrics). It is kept out of Metrics, which a batch item must
	// reproduce bit for bit from its standalone run.
	ScratchPeakBytes int64
}

// group is one decision unit: the objects of one text cluster below the
// candidate's entry (or all of them, cluster = -1, on unclustered trees),
// together with every query of rank cutoff k still undecided on them.
// Scoping decisions to (entry, cluster) is what makes the CIUR-tree
// effective: the candidate-side textual envelope is the cluster's, not
// the node's mixture, so both the query bounds and the kNN bounds
// tighten dramatically for textually clustered data.
//
// The contribution list and the (kNNL, kNNU) it yields are properties of
// the data and of k, never of a query: only the Rule 1/2 test compares
// them with a query's interval. So one list serves all the group's
// queries, and every rebound and refinement is done once for all of
// them (DESIGN.md §11). spent tallies that shared work since the group
// was created; each query is charged the whole tally when it settles or
// when the group expands, which is exactly the work a standalone run
// would have done on the same list up to that point.
type group struct {
	cluster int32
	count   int32
	k       int
	env     vector.Envelope
	cl      contributionList
	queries []groupQuery
	spent   Metrics
}

// groupQuery is one query pending on a group: its index among the
// searcher's items and its similarity interval to the group's objects.
type groupQuery struct {
	qi int
	q  interval
}

// RSTkNN answers the reverse spatial-textual k nearest neighbor query on
// a sealed IUR-tree or CIUR-tree: it returns every indexed object o such
// that SimST(o, q) >= SimST(o, o_k), where o_k is o's k-th most similar
// indexed object (excluding o itself). Objects with fewer than k
// neighbors are always results.
//
// A single query is the one-item case of the shared traversal (see
// batch.go), with its node table in standalone mode: every node read
// makes its own store fetch, charged to opt.Tracker.
func RSTkNN(t *iurtree.Snapshot, q Query, opt Options) (*Outcome, error) {
	outs, _, err := search(t, []BatchItem{{Query: q, K: opt.K, BoundTrace: opt.BoundTrace}}, opt, false)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// searcher is what every worker of one traversal shares: the tree, the
// options and the queries (read-only), and the traversal's node table.
type searcher struct {
	tree  *iurtree.Snapshot
	opt   Options
	items []BatchItem
	table *nodeTable
}

// search is the one traversal driver behind RSTkNN and MultiRSTkNN: it
// validates the inputs, seeds the shared frontier, drains it in rounds,
// and merges every worker's per-query lanes into one Outcome per item,
// in item order, with Results sorted ascending. shared selects the node
// table's mode: a batch shares each node's one fetch among its queries,
// a standalone query pays a fetch per read. The returned BatchMetrics
// carry the distinct nodes read, the similarity work the workers
// physically did and the scratch high-water; the caller fills in
// SharedHits.
func search(t *iurtree.Snapshot, items []BatchItem, opt Options, shared bool) ([]*Outcome, BatchMetrics, error) {
	var bm BatchMetrics
	for i := range items {
		if items[i].K <= 0 {
			return nil, bm, fmt.Errorf("core: item %d: K must be positive, got %d", i, items[i].K)
		}
	}
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return nil, bm, fmt.Errorf("core: Alpha must be in [0,1], got %g", opt.Alpha)
	}
	if err := checkCtx(opt.Ctx); err != nil {
		return nil, bm, err
	}
	outs := make([]*Outcome, len(items))
	for i := range outs {
		outs[i] = &Outcome{}
	}
	if len(items) == 0 || t.Len() == 0 {
		return outs, bm, nil
	}

	s := &searcher{tree: t, opt: opt, items: items, table: getTable(t, opt.Tracker, shared)}
	ws := make([]*worker, effectiveWorkers(opt.Workers))
	for i := range ws {
		ws[i] = s.newWorker()
	}
	// Scratches and the table are recycled only after the frontier is
	// fully drained and every lane harvested — candidates built by one
	// worker may reference arena-backed bounds owned by another, and
	// table entries, until decided.
	defer func() {
		for _, w := range ws {
			w.release()
		}
		s.table.release()
	}()

	frontier, err := ws[0].seed()
	if err != nil {
		return nil, bm, err
	}
	if err := runBatchRounds(ws, frontier); err != nil {
		return nil, bm, err
	}

	for _, w := range ws {
		for qi, o := range outs {
			o.Metrics.add(&w.lanes[qi].metrics)
			o.Results = append(o.Results, w.lanes[qi].results...)
		}
		bm.ExactSims += w.scorer.ExactCount
		bm.BoundEvals += w.scorer.BoundCount
		bm.ScratchPeakBytes += w.scratch.mem.peak
	}
	bm.ScratchPeakBytes += s.table.mem.peak
	bm.NodesRead = int(s.table.phys.Load())
	for _, o := range outs {
		sort.Slice(o.Results, func(i, j int) bool { return o.Results[i] < o.Results[j] })
		o.ScratchPeakBytes = bm.ScratchPeakBytes
	}
	return outs, bm, nil
}

// candidate is one frontier slot: a tree entry plus its groups that
// still have undecided queries. Keeping every group of one entry
// together means expansion reads the node exactly once no matter how
// many queries, clusters and rank cutoffs remain undecided. The entry
// points into the node table's entries of the parent node; the slot,
// its group list and the group records are carved from the scratch
// arenas of the worker that built them.
type candidate struct {
	entry  *iurtree.Entry
	groups []*group
}

// lane is one worker's private accumulator for one query. Totals are
// order-independent sums, so adding the lanes of all workers yields the
// same Metrics at every worker count.
type lane struct {
	metrics Metrics
	results []int32
}

// worker owns everything one goroutine touches while deciding candidates:
// a private Scorer (so similarity counters need no synchronization), a
// pooled scratch, and one accumulator lane per query. All cross-worker
// aggregates are sums or sets, so the merge is order-independent and the
// outcome identical at every worker count.
type worker struct {
	s       *searcher
	scorer  Scorer
	scratch *scratch
	lanes   []lane
	// seen de-duplicates the queries of one expansion across its groups:
	// seen[qi] == stamp once query qi has been charged the node read.
	seen  []uint32
	stamp uint32
}

// newWorker prepares one worker for the searcher.
func (s *searcher) newWorker() *worker {
	sc := getScratch()
	sc.sizeHist(s.tree.NumClusters())
	return &worker{
		s:       s,
		scorer:  *NewScorer(s.opt.Alpha, s.tree.MaxD(), s.opt.Sim),
		scratch: sc,
		lanes:   make([]lane, len(s.items)),
		seen:    make([]uint32, len(s.items)),
	}
}

// release recycles the worker's scratch. Call only after the frontier is
// fully drained AND the lanes have been harvested: live candidates of
// any query may reference arena-backed memory owned by this scratch.
func (w *worker) release() {
	w.scratch.release()
	w.scratch = nil
}

// simMark is a snapshot of the worker's scorer counters.
type simMark struct{ exact, bound int64 }

func (w *worker) mark() simMark {
	return simMark{w.scorer.ExactCount, w.scorer.BoundCount}
}

// chargeSince adds the similarity work done since mk to m.
//
//rstknn:hotpath one call per shared bound step
func (w *worker) chargeSince(mk simMark, m *Metrics) {
	m.ExactSims += w.scorer.ExactCount - mk.exact
	m.BoundEvals += w.scorer.BoundCount - mk.bound
}

// fold charges work m, done once on behalf of several queries, to query
// qi's lane, so the query's Metrics read as if it had done m alone.
// Under a shared table each of m's logical node reads is also one
// shared read on the query's own tracker.
//
//rstknn:hotpath one call per settled query and per expansion
func (w *worker) fold(qi int, m *Metrics) {
	w.lanes[qi].metrics.add(m)
	if !w.s.table.shared {
		return
	}
	tr := w.s.items[qi].Tracker
	for i := 0; i < m.NodesRead; i++ {
		tr.ChargeSharedRead()
	}
}

// read returns node id's entries from the traversal's node table,
// checking for cancellation first. It charges no logical read: the
// caller folds one NodesRead into every query the read serves. The
// entries are shared and read-only, and live until the traversal ends.
func (w *worker) read(id storage.NodeID) ([]iurtree.Entry, error) {
	if err := checkCtx(w.s.opt.Ctx); err != nil {
		return nil, err
	}
	return w.s.table.read(id, &w.scratch.offs)
}

// oneRead is the logical cost of one node read.
var oneRead = Metrics{NodesRead: 1}

// seed builds the first frontier: the root's children, each child
// contributing to the others. The pseudo parent groups carry empty
// contribution lists: one per (root cluster, distinct K), holding every
// query of that K. Queries of different K never share a group — k
// decides which contributors are worth refining, so their lists diverge.
func (w *worker) seed() ([]candidate, error) {
	s := w.s
	root := s.tree.RootEntry()
	if root.Count == 1 {
		// A single object: it has no neighbors, so the k-th NN similarity
		// is -Inf and the object is always a result, for every query.
		ents, err := w.read(root.Child)
		if err != nil {
			return nil, err
		}
		id := ents[0].ObjID
		for qi := range s.items {
			w.fold(qi, &oneRead)
			ln := &w.lanes[qi]
			ln.metrics.Candidates++
			ln.results = append(ln.results, id)
		}
		return nil, nil
	}
	clusters := []int32{-1}
	if s.tree.Clustered() && len(root.Clusters) > 0 {
		clusters = clusters[:0]
		for _, cs := range root.Clusters {
			clusters = append(clusters, cs.Cluster)
		}
	}
	// Group the queries by K, in order of first appearance; each group
	// lists its queries in ascending item order.
	var ks []int
	byK := map[int][]groupQuery{}
	for qi := range s.items {
		k := s.items[qi].K
		if _, ok := byK[k]; !ok {
			ks = append(ks, k)
		}
		byK[k] = append(byK[k], groupQuery{qi: qi})
	}
	seeds := make([]group, 0, len(clusters)*len(ks))
	for _, k := range ks {
		for _, c := range clusters {
			seeds = append(seeds, group{cluster: c, k: k, queries: byK[k]})
		}
	}
	pending := make([]*group, len(seeds))
	for i := range seeds {
		pending[i] = &seeds[i]
	}
	return w.expand(&root, pending)
}

// minFanoutRound is the smallest frontier size a round fans out across
// the worker pool; smaller rounds run inline on worker 0. The tail of a
// search is many rounds of a handful of candidates each, and paying a
// goroutine spawn plus a barrier per tiny round is why the pinned
// baseline showed Workers=2 running 0.93x sequential on a 1-CPU machine.
const minFanoutRound = 8

// runBatchRounds drains the frontier: the whole frontier is processed
// per round, slots fanned across the worker pool by an atomic counter,
// children merged back in frontier order. Every (group, query) verdict
// depends only on the group's own contribution list — never on another
// candidate or on processing order — so the only coordination is the
// round barrier, the merged outcome is identical at every worker count,
// and the frontier-order merge keeps runs reproducible.
func runBatchRounds(ws []*worker, first []candidate) error {
	round := first
	var firstErr error
	for len(round) > 0 && firstErr == nil {
		children := make([][]candidate, len(round))
		errs := make([]error, len(round))
		if len(ws) == 1 || len(round) < minFanoutRound {
			// Small frontier (or a one-worker pool): goroutine spawn plus
			// the round barrier cost more than the candidates' work, so
			// run them inline on worker 0 — wall-clock changes, verdicts
			// do not.
			for j := range round {
				children[j], errs[j] = ws[0].process(&round[j])
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			spawn := len(ws)
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
						children[j], errs[j] = w.process(&round[j])
					}
				}(ws[i])
			}
			wg.Wait()
		}
		var next []candidate
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

// process drives one frontier slot: every group is decided for all of
// its queries (or kept pending for some), then — if any group still has
// undecided queries — the entry's node is expanded once for all of them.
// An object slot always decides (decideObject).
// The slot is consumed: its group list and each group's query list are
// filtered in place down to the pending ones, which only the processing
// worker ever touches.
func (w *worker) process(c *candidate) ([]candidate, error) {
	if c.entry.IsObject() {
		return nil, w.decideObject(c)
	}
	pending := c.groups[:0]
	for _, g := range c.groups {
		expand, err := w.decideGroup(c.entry, g)
		if err != nil {
			return nil, err
		}
		if expand {
			pending = append(pending, g)
		}
	}
	if len(pending) == 0 {
		return nil, nil
	}
	return w.expand(c.entry, pending)
}

// decideObject decides every group of an object slot, then rewinds the
// parts and contribs arenas to where they stood before. An object group
// never expands, so nothing carved while deciding it — refined
// contribution lists and the bounds rebounds and refinements computed —
// is referenced afterwards: only result IDs (appended to the lanes),
// traced bound values and Metrics leave the decision. Internal slots
// are never rewound, because their child groups inherit pointers into
// their lists' parts. The rewind keeps a traversal's scratch at its
// live frontier plus one decision, instead of growing with every
// refinement it ever made.
func (w *worker) decideObject(c *candidate) error {
	sc := w.scratch
	pm, cm := sc.parts.mark(), sc.contribs.mark()
	var err error
	for _, g := range c.groups {
		if _, err = w.decideGroup(c.entry, g); err != nil {
			break
		}
	}
	sc.parts.rewind(pm)
	sc.contribs.rewind(cm)
	return err
}

// expand reads parent's node once and turns its entries into the next
// frontier slots, building each child group once for all the queries
// pending on its parent group. Every query pending anywhere in the slot
// is charged one logical read and the sibling bounds, exactly as a
// standalone run expanding the same node would be; only the query
// intervals are computed per (child group, query). Slots come out in
// entry order, each slot's groups in the parent's group order —
// deterministic regardless of which worker expanded the parent.
//
// Each child group inherits its parent group's contribution list and
// gains the child's siblings as contributors. Inherited and sibling
// bounds are kept at parent/node granularity and marked stale — valid
// for the group because its objects are a subset of what the bounds
// cover — and are tightened lazily when the group is processed, keeping
// expansion cost linear in the fan-out. Every sibling contributor and
// every slot entry points into the node table's entries for the parent,
// and inherited contributors keep pointing wherever the parent group's
// did, so no Entry is copied per group.
//
// The slots (and the arena-backed groups and bounds they reference) are
// only published to other workers through the round barrier, so the
// scratch-owning worker is the sole writer until then.
func (w *worker) expand(parent *iurtree.Entry, pending []*group) ([]candidate, error) {
	children, err := w.read(parent.Child)
	if err != nil {
		return nil, err
	}
	sc := w.scratch

	// Sibling bounds are relative to the parent, so one set serves every
	// group and query; each pending query still pays for them once, as
	// its standalone expansion would.
	parentSide := sideOf(parent)
	mk := w.mark()
	sibParts := sc.sibParts[:0]
	for j := range children {
		sibParts = append(sibParts, w.scorer.entryBoundsInto(sc, parentSide, &children[j]))
	}
	perQuery := oneRead
	w.chargeSince(mk, &perQuery)
	w.stamp++
	for _, pg := range pending {
		for _, gq := range pg.queries {
			if w.seen[gq.qi] != w.stamp {
				w.seen[gq.qi] = w.stamp
				w.fold(gq.qi, &perQuery)
			}
		}
	}

	slots := sc.slots.alloc(len(children))[:len(children)]
	for i := range children {
		child := &children[i]
		for _, pg := range pending {
			env, count := clusterOf(child, pg.cluster)
			if count == 0 {
				continue
			}
			g := &sc.groups.alloc(1)[:1][0]
			g.cluster, g.count, g.k, g.env = pg.cluster, count, pg.k, env
			gSide := side{rect: child.Rect, env: env, exact: child.IsObject()}
			mk := w.mark()
			g.cl.self = w.scorer.selfPartsInto(sc, child, pg.cluster, env, count)
			w.chargeSince(mk, &g.spent)
			g.cl.contributors = allocContribs(sc, len(pg.cl.contributors)+len(children)-1, contribHeadroom)
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
				w.reboundStale(gSide, &g.cl, &g.spent)
			}
			g.queries = sc.gqs.alloc(len(pg.queries))[:len(pg.queries)]
			for j, pq := range pg.queries {
				mk := w.mark()
				g.queries[j] = groupQuery{qi: pq.qi, q: w.scorer.queryBounds(gSide, &w.s.items[pq.qi].Query)}
				w.chargeSince(mk, &w.lanes[pq.qi].metrics)
			}
			slot := &slots[i]
			if slot.groups == nil {
				slot.entry = child
				slot.groups = sc.glists.alloc(len(pending))
			}
			slot.groups = append(slot.groups, g)
		}
	}
	sc.sibParts = sibParts[:0]
	out := slots[:0]
	for i := range slots {
		if len(slots[i].groups) > 0 {
			out = append(out, slots[i])
		}
	}
	return out, nil
}

// clusterOf returns the envelope and object count of the given cluster
// below e, or a zero count when e holds no such objects. Cluster -1 (a
// whole-node group) covers the entire entry.
func clusterOf(e *iurtree.Entry, cluster int32) (vector.Envelope, int32) {
	if cluster < 0 {
		return e.Env, e.Count
	}
	for i := range e.Clusters {
		if e.Clusters[i].Cluster == cluster {
			return e.Clusters[i].Env, e.Clusters[i].Count
		}
	}
	return vector.Envelope{}, 0
}

// contribHeadroom is the arena growth slack reserved on every new
// contribution list so in-place refinement appends (which replace one
// contributor with a node's children) usually stay inside the carve.
const contribHeadroom = 8

// decideGroup evaluates one group against the two pruning rules for all
// of its pending queries, tightening the shared contribution list in two
// tiers: *rebounds* recompute the stale inherited bounds against this
// group (pure CPU), *refinements* replace a contributor node with its
// children (one node read each). Each step computes (kNNL, kNNU) once,
// settles every query a rule decides, and tightens the list once for the
// rest. Object-level groups always reach a decision; internal groups
// return true (expand) for the queries still pending once rebounds and
// the refinement budget are exhausted.
func (w *worker) decideGroup(e *iurtree.Entry, g *group) (bool, error) {
	groupBudget := w.s.opt.GroupRefine
	gSide := side{rect: e.Rect, env: g.env, exact: e.IsObject()}
	sc := w.scratch
	for {
		sc.selLo.reset(g.k)
		sc.selHi.reset(g.k)
		g.cl.knnBoundsInto(&sc.selLo, &sc.selHi)
		knnl, knnu := sc.selLo.kth(), sc.selHi.kth()
		if err := w.settle(e, g, knnl, knnu); err != nil {
			return false, err
		}
		if len(g.queries) == 0 {
			return false, nil
		}
		// Tier 1: make every inherited bound group-relative (pure CPU).
		// Loose ancestor-level lower bounds keep kNNL artificially low,
		// so all of them are tightened in one pass the first time the
		// group turns out to be undecided.
		if w.reboundStale(gSide, &g.cl, &g.spent) {
			continue
		}
		idx := g.cl.refinable(w.s.opt.Strategy, sc.hist, knnu)
		if e.IsObject() {
			// Undecided object: refine its contribution list. The loop
			// is guaranteed to decide once every contributor is a fresh
			// object, because then knnl == knnu and the two rules are
			// exhaustive.
			if idx < 0 {
				return false, fmt.Errorf("core: undecidable object %d with exact bounds [%g, %g], query %g",
					e.ObjID, knnl, knnu, g.queries[0].q.lo)
			}
			if err := w.refine(gSide, &g.cl, idx, &g.spent); err != nil {
				return false, err
			}
			continue
		}
		if groupBudget > 0 && idx >= 0 {
			groupBudget--
			if err := w.refine(gSide, &g.cl, idx, &g.spent); err != nil {
				return false, err
			}
			continue
		}
		for _, gq := range g.queries {
			w.fold(gq.qi, &g.spent)
		}
		return true, nil
	}
}

// settle applies Rule 1 and Rule 2 with the group's current bounds to
// every pending query. A decided query is charged the group's work so
// far, traced (object groups), counted, and — when reported — given the
// group's members; g.queries keeps the undecided ones, in order. The
// members of a reported internal group are collected once per step for
// all the queries reporting it, each charged the reads.
func (w *worker) settle(e *iurtree.Entry, g *group, knnl, knnu float64) error {
	keep := g.queries[:0]
	var members Metrics
	ids := w.scratch.ids[:0]
	collected := false
	for _, gq := range g.queries {
		var reported bool
		switch {
		case gq.q.hi < knnl:
			// Rule 1: the query can never reach any member's top-k.
		case gq.q.lo >= knnu:
			// Rule 2: the query ranks within every member's top-k.
			reported = true
		default:
			keep = append(keep, gq)
			continue
		}
		w.fold(gq.qi, &g.spent)
		ln := &w.lanes[gq.qi]
		if e.IsObject() {
			if trace := w.s.items[gq.qi].BoundTrace; trace != nil {
				trace(e.ObjID, knnl, knnu)
			}
			ln.metrics.Candidates++
			if reported {
				ln.results = append(ln.results, e.ObjID)
			}
			continue
		}
		if !reported {
			ln.metrics.GroupPruned += int(g.count)
			continue
		}
		ln.metrics.GroupReported += int(g.count)
		if !collected {
			var err error
			ids, members.NodesRead, err = w.collect(e.Child, g.cluster, ids)
			if err != nil {
				return err
			}
			collected = true
		}
		ln.results = append(ln.results, ids...)
		w.fold(gq.qi, &members)
	}
	w.scratch.ids = ids[:0]
	g.queries = keep
	return nil
}

// reboundStale recomputes every stale contributor's bounds against the
// group itself (they were inherited from an ancestor), charging the work
// to spent. No I/O. Returns true when anything changed. The fresh parts
// replace the inherited slice (which may be shared with sibling groups)
// — they never mutate it.
func (w *worker) reboundStale(gSide side, cl *contributionList, spent *Metrics) bool {
	mk := w.mark()
	changed := false
	for i := range cl.contributors {
		ct := &cl.contributors[i]
		if !ct.stale {
			continue
		}
		ct.parts = w.scorer.entryBoundsInto(w.scratch, gSide, ct.entry)
		ct.stale = false
		spent.Rebounds++
		changed = true
	}
	w.chargeSince(mk, spent)
	return changed
}

// refine replaces contributor idx with its children, re-bounded against
// the group, charging the read and the bounds to spent. The new
// contributors point into the node table's entries for the refined
// node; the replacement buffer is scratch-owned: replace() copies it
// into the contribution list, so it is reusable immediately.
func (w *worker) refine(gSide side, cl *contributionList, idx int, spent *Metrics) error {
	children, err := w.read(cl.contributors[idx].entry.Child)
	if err != nil {
		return err
	}
	spent.NodesRead++
	spent.Refinements++
	mk := w.mark()
	repl := w.scratch.repl[:0]
	for i := range children {
		repl = append(repl, contributor{
			entry: &children[i],
			parts: w.scorer.entryBoundsInto(w.scratch, gSide, &children[i]),
		})
	}
	w.chargeSince(mk, spent)
	cl.replace(w.scratch, idx, repl)
	w.scratch.repl = repl[:0]
	return nil
}

// collect appends the IDs of the objects below node id that belong to
// the given cluster (every object when cluster < 0) to ids, and returns
// the number of nodes it read to find them. Only entries passing the
// cluster filter recurse.
func (w *worker) collect(id storage.NodeID, cluster int32, ids []int32) ([]int32, int, error) {
	ents, err := w.read(id)
	if err != nil {
		return ids, 0, err
	}
	reads := 1
	for i := range ents {
		e := &ents[i]
		if cluster >= 0 && clusterCountIn(e.Clusters, cluster) == 0 {
			continue
		}
		if e.IsObject() {
			ids = append(ids, e.ObjID)
			continue
		}
		var sub int
		ids, sub, err = w.collect(e.Child, cluster, ids)
		reads += sub
		if err != nil {
			return ids, reads, err
		}
	}
	return ids, reads, nil
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
