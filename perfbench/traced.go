package main

import (
	"context"
	"fmt"
	"time"

	"rstknn"
	"rstknn/internal/core"
)

// layerTotals accumulates the traced replay.
type layerTotals struct {
	queries, batches, requests, writes int

	engineNs, stackNs int64 // engine calls and stack root spans, for the overhead

	// Engine call time minus inner-layer time, one value per operation.
	rstknnSelfQuery, rstknnSelfBatch, rstknnSelfWrite []float64
	vectorizeNs                                       int64
	vectorizeCalls                                    int
	coreSelfQuery, coreSelfBatch                      int64

	getCalls, getNs, pagesRead          int64
	exactCalls, boundsCalls, vectorNs   int64
	putCalls, putNs, cowNs              int64
	nodesWritten, pagesWritten, retired int64
	pendingMax                          int
	nodesRead, physical, sharedHits     int64
	refinements, rebounds, candidates   int64
	exactSims, boundEvals, results      int64
	decided, objectsSeen                int64
	bcHits, bcMisses                    int64
	writeLat                            []float64
	allocBytes, allocObjects, gcCycles  uint64
	heapPeak                            float64
	gcCPU, totalCPU                     float64
}

// innerNs is the time a write spent in the layers below the engine
// glue: text weighing, the iurtree path copy, and reclamation. Queries
// instead subtract the Engine's own QueryStats.Duration, its timing of
// the core call, because the traced core span also carries the storage
// and similarity wrappers' overhead.
func (s *stack) innerNs(sp opSpans) int64 {
	ns := s.vectorizeNs(sp)
	if sp.layer >= 0 {
		ns += s.t.spans[sp.layer].dur()
	}
	if sp.reclaim >= 0 {
		ns += s.t.spans[sp.reclaim].dur()
	}
	return ns
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func (s *stack) vectorizeNs(sp opSpans) int64 {
	var ns int64
	for _, v := range sp.vectorize {
		ns += s.t.spans[v].dur()
	}
	return ns
}

// coreDuration is the Engine's own timing of its core call for a query
// or batch (every request of a batch carries the whole traversal's).
func coreDuration(r *record) time.Duration {
	for _, res := range r.results {
		if res != nil {
			return res.Stats.Duration
		}
	}
	return 0
}

func (lt *layerTotals) addVectorize(s *stack, sp opSpans) {
	lt.vectorizeNs += s.vectorizeNs(sp)
	lt.vectorizeCalls += len(sp.vectorize)
}

// addInner adds the storage and similarity calls of a core span.
func (lt *layerTotals) addInner(in *innerCounters) {
	lt.getCalls += in.GetCalls.Load()
	lt.getNs += in.GetNs.Load()
	lt.exactCalls += in.ExactCalls.Load()
	lt.boundsCalls += in.BoundsCalls.Load()
	lt.vectorNs += in.VectorNs.Load()
}

// addOutcome adds one request's core.Metrics.
func (lt *layerTotals) addOutcome(out *core.Outcome, objects int64) {
	m := &out.Metrics
	lt.results += int64(len(out.Results))
	lt.objectsSeen += objects
	lt.nodesRead += int64(m.NodesRead)
	lt.refinements += int64(m.Refinements)
	lt.rebounds += int64(m.Rebounds)
	lt.candidates += int64(m.Candidates)
	lt.exactSims += m.ExactSims
	lt.boundEvals += m.BoundEvals
	lt.decided += int64(m.GroupPruned + m.GroupReported)
}

// sameQuery reports how the stack's answer differs from the Engine's,
// or "" when results, core.Metrics and I/O counters all agree.
// (core.Metrics.Rebounds is not exposed by the Engine.)
func sameQuery(r *rstknn.Result, out *core.Outcome, pages, hits, shared int64) string {
	if r == nil || out == nil {
		return "missing answer"
	}
	if !equalIDs(r.IDs, out.Results) {
		return fmt.Sprintf("results differ: engine %d IDs, stack %d", len(r.IDs), len(out.Results))
	}
	m, st := out.Metrics, r.Stats
	if st.NodesRead != m.NodesRead || st.ExactSims != m.ExactSims || st.BoundEvals != m.BoundEvals ||
		st.GroupPruned != m.GroupPruned || st.GroupReported != m.GroupReported ||
		st.Candidates != m.Candidates || st.Refinements != m.Refinements {
		return fmt.Sprintf("metrics differ: engine %+v, stack %+v", st, m)
	}
	if st.PageAccesses != pages || st.CacheHits != hits || st.SharedReads != shared {
		return fmt.Sprintf("I/O differs: engine pages %d hits %d shared %d, stack %d %d %d",
			st.PageAccesses, st.CacheHits, st.SharedReads, pages, hits, shared)
	}
	return ""
}

func sameWrite(r *record, w *stackWrite) string {
	u := r.update
	if r.kind == opDelete && r.found != w.found {
		return fmt.Sprintf("delete found: engine %v, stack %v", r.found, w.found)
	}
	if u == nil {
		return "missing engine update stats"
	}
	if u.Writes != w.tracker.Writes() || u.PagesWritten != w.tracker.PagesWritten() ||
		u.Reads != w.tracker.Reads() || u.PagesRead != w.tracker.PagesRead() || u.Retired != w.retired {
		return fmt.Sprintf("write I/O differs: engine %+v, stack writes %d pages %d reads %d pages %d retired %d",
			*u, w.tracker.Writes(), w.tracker.PagesWritten(), w.tracker.Reads(), w.tracker.PagesRead(), w.retired)
	}
	return ""
}

// replay runs every operation of the engine pass through the stack, in
// the same order, checks each answer against the Engine's, and
// accumulates the per-layer totals.
func replay(ctx context.Context, s *stack, in *inputs, p *enginePass, v *verification) (*layerTotals, error) {
	lt := &layerTotals{}
	bc0 := s.tree.BoundCacheStats()
	for ri := range p.recs {
		r := &p.recs[ri]
		lt.engineNs += int64(r.dur)
		lt.allocBytes += r.allocBytes
		lt.allocObjects += r.allocObjects
		lt.gcCycles += r.gcCycles
		objects := int64(s.tree.Len())
		switch {
		case in.w.batch:
			reqs := make([]rstknn.QueryRequest, len(r.results))
			for j := range reqs {
				reqs[j] = in.op(r.first + j).q
			}
			b, sp, err := s.batch(ctx, r.first, reqs)
			if err != nil {
				return nil, fmt.Errorf("stack batch at op %d: %w", r.first, err)
			}
			lt.stackNs += s.t.spans[sp.root].dur()
			lt.batches++
			lt.requests += len(reqs)
			lt.rstknnSelfBatch = append(lt.rstknnSelfBatch, usOf(int64(r.dur)-s.vectorizeNs(sp)-int64(coreDuration(r))))
			lt.addVectorize(s, sp)
			layer := &s.t.spans[sp.layer]
			lt.coreSelfBatch += layer.selfNs()
			lt.pagesRead += b.batch.PagesRead()
			lt.physical += int64(b.mo.Batch.NodesRead)
			lt.sharedHits += int64(b.mo.Batch.SharedHits)
			if r.batch.NodesRead != b.mo.Batch.NodesRead || r.batch.SharedHits != b.mo.Batch.SharedHits ||
				r.batch.PageAccesses != b.batch.PagesRead() {
				v.fail(r.first, "batch stats differ: engine %+v, stack nodes %d shared %d pages %d",
					r.batch, b.mo.Batch.NodesRead, b.mo.Batch.SharedHits, b.batch.PagesRead())
			}
			lt.addInner(layer.Inner)
			for j, out := range b.mo.Outcomes {
				lt.addOutcome(out, objects)
				if d := sameQuery(r.results[j], out, b.trackers[j].PagesRead(), b.trackers[j].CacheHits(), b.trackers[j].SharedReads()); d != "" {
					v.fail(r.first+j, "stack differs from engine: %s", d)
				}
			}
		case r.kind == opQuery:
			q, sp, err := s.query(ctx, r.first, in.op(r.first).q)
			if err != nil {
				return nil, fmt.Errorf("stack query at op %d: %w", r.first, err)
			}
			lt.stackNs += s.t.spans[sp.root].dur()
			lt.queries++
			lt.requests++
			lt.rstknnSelfQuery = append(lt.rstknnSelfQuery, usOf(int64(r.dur)-s.vectorizeNs(sp)-int64(coreDuration(r))))
			lt.addVectorize(s, sp)
			layer := &s.t.spans[sp.layer]
			lt.coreSelfQuery += layer.selfNs()
			lt.addInner(layer.Inner)
			lt.addOutcome(q.out, objects)
			lt.pagesRead += q.tracker.PagesRead()
			lt.physical += int64(q.out.Metrics.NodesRead)
			if d := sameQuery(r.results[0], q.out, q.tracker.PagesRead(), q.tracker.CacheHits(), q.tracker.SharedReads()); d != "" {
				v.fail(r.first, "stack differs from engine: %s", d)
			}
		default:
			var w *stackWrite
			var sp opSpans
			var err error
			if r.kind == opInsert {
				w, sp, err = s.insert(r.first, in.op(r.first).obj)
			} else {
				w, sp, err = s.delete(r.first, in.op(r.first).id)
			}
			if err != nil {
				return nil, fmt.Errorf("stack %v at op %d: %w", r.kind, r.first, err)
			}
			lt.stackNs += s.t.spans[sp.root].dur()
			lt.writes++
			lt.writeLat = append(lt.writeLat, r.dur.Seconds()*1000)
			lt.rstknnSelfWrite = append(lt.rstknnSelfWrite, usOf(int64(r.dur)-s.innerNs(sp)))
			lt.addVectorize(s, sp)
			if sp.layer >= 0 {
				layer := &s.t.spans[sp.layer]
				lt.cowNs += layer.dur()
				lt.putCalls += layer.Inner.PutCalls.Load()
				lt.putNs += layer.Inner.PutNs.Load()
			}
			lt.nodesWritten += w.tracker.Writes()
			lt.pagesWritten += w.tracker.PagesWritten()
			lt.retired += int64(w.retired)
			if d := sameWrite(r, w); d != "" {
				v.fail(r.first, "stack differs from engine: %s", d)
			}
		}
		if pending := s.rec.Stats().Pending; pending > lt.pendingMax {
			lt.pendingMax = pending
		}
	}
	bc1 := s.tree.BoundCacheStats()
	lt.bcHits, lt.bcMisses = bc1.Hits-bc0.Hits, bc1.Misses-bc0.Misses
	lt.gcCPU, lt.totalCPU = p.gcCPU, p.totalCPU
	lt.heapPeak = p.heap.medianPeak()
	return lt, nil
}

// perLayer turns the totals into the per-layer metrics.
func perLayer(lt *layerTotals, s *stack, eng *rstknn.Engine, indexLog string) map[string]metric {
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	us := func(ns int64, n int) float64 { return per(float64(ns)/1e3, n) }
	ms := func(ns int64, n int) float64 { return per(float64(ns)/1e6, n) }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	spanMs := func(name string) float64 {
		var ns int64
		for i := range s.t.spans {
			if sp := &s.t.spans[i]; sp.Req == -1 && sp.Name == name && sp.Parent == -1 {
				ns += sp.dur()
			}
		}
		return float64(ns) / 1e6
	}
	q, w := lt.requests, lt.writes
	ops := q + w
	var diskPerLive float64
	if indexLog != "" {
		diskPerLive = frac(float64(fileSize(indexLog)), float64(eng.Stats().LiveBytes))
	}
	return map[string]metric{
		"rstknn.self_us_per_query":         {quantile(lt.rstknnSelfQuery, 0.5), "us"},
		"rstknn.self_us_per_batch":         {quantile(lt.rstknnSelfBatch, 0.5), "us"},
		"rstknn.self_us_per_write":         {quantile(lt.rstknnSelfWrite, 0.5), "us"},
		"rstknn.write_p50_ms":              {quantile(lt.writeLat, 0.5), "ms"},
		"rstknn.write_p90_ms":              {quantile(lt.writeLat, 0.9), "ms"},
		"textual.corpus_ms":                {spanMs("textual.corpus"), "ms"},
		"textual.vocab_load_ms":            {spanMs("textual.vocab_load"), "ms"},
		"dataset.load_ms":                  {spanMs("dataset.load"), "ms"},
		"textual.vectorize_us_per_query":   {us(lt.vectorizeNs, lt.vectorizeCalls), "us"},
		"cluster.run_ms":                   {spanMs("cluster.run"), "ms"},
		"iurtree.build_ms":                 {spanMs("iurtree.build"), "ms"},
		"iurtree.open_ms":                  {spanMs("iurtree.open"), "ms"},
		"iurtree.bound_cache_hit_ratio":    {frac(float64(lt.bcHits), float64(lt.bcHits+lt.bcMisses)), "frac"},
		"iurtree.cow_us_per_write":         {us(lt.cowNs, w), "us"},
		"iurtree.nodes_written_per_write":  {per(float64(lt.nodesWritten), w), "count"},
		"iurtree.retired_per_write":        {per(float64(lt.retired), w), "count"},
		"core.self_ms_per_query":           {ms(lt.coreSelfQuery, lt.queries), "ms"},
		"core.self_ms_per_batch":           {ms(lt.coreSelfBatch, lt.batches), "ms"},
		"core.nodes_read_per_query":        {per(float64(lt.nodesRead), q), "count"},
		"core.refinements_per_query":       {per(float64(lt.refinements), q), "count"},
		"core.rebounds_per_query":          {per(float64(lt.rebounds), q), "count"},
		"core.candidates_per_query":        {per(float64(lt.candidates), q), "count"},
		"core.exact_sims_per_query":        {per(float64(lt.exactSims), q), "count"},
		"core.bound_evals_per_query":       {per(float64(lt.boundEvals), q), "count"},
		"core.results_per_query":           {per(float64(lt.results), q), "count"},
		"core.group_decided_frac":          {frac(float64(lt.decided), float64(lt.objectsSeen)), "frac"},
		"core.physical_nodes_per_query":    {per(float64(lt.physical), q), "count"},
		"core.shared_hit_frac":             {frac(float64(lt.sharedHits), float64(lt.nodesRead)), "frac"},
		"storage.get_calls_per_query":      {per(float64(lt.getCalls), q), "count"},
		"storage.get_us_per_query":         {us(lt.getNs, q), "us"},
		"storage.pages_read_per_query":     {per(float64(lt.pagesRead), q), "pages"},
		"storage.put_calls_per_write":      {per(float64(lt.putCalls), w), "count"},
		"storage.put_us_per_write":         {us(lt.putNs, w), "us"},
		"storage.pages_written_per_write":  {per(float64(lt.pagesWritten), w), "pages"},
		"storage.open_ms":                  {spanMs("storage.open"), "ms"},
		"storage.pending_reclaim_max":      {float64(lt.pendingMax), "count"},
		"storage.disk_bytes_per_live_byte": {diskPerLive, "ratio"},
		"vector.exact_calls_per_query":     {per(float64(lt.exactCalls), q), "count"},
		"vector.bounds_calls_per_query":    {per(float64(lt.boundsCalls), q), "count"},
		"vector.us_per_query":              {us(lt.vectorNs, q), "us"},
		"gc.alloc_kb_per_op":               {per(float64(lt.allocBytes)/1024, ops), "KB"},
		"gc.allocs_per_op":                 {per(float64(lt.allocObjects), ops), "count"},
		"gc.cycles_per_op":                 {per(float64(lt.gcCycles), ops), "count"},
		"gc.cpu_frac":                      {frac(lt.gcCPU, lt.totalCPU), "frac"},
		"gc.heap_peak_mb":                  {lt.heapPeak / (1 << 20), "MB"},
		"trace.overhead_frac":              {frac(float64(lt.stackNs-lt.engineNs), float64(lt.engineNs)), "frac"},
	}
}

// tracedRun is the --trace 1 run: an untraced engine pass, then the same
// operations through the assembled stack with spans.
func tracedRun(ctx context.Context, in *inputs, work string, d time.Duration, tracePath string) (map[string]metric, *verification, map[string]any, error) {
	eng, dir, _, err := setupEngine(in, work, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	defer eng.Close()
	stackDir := ""
	if dir != "" {
		stackDir = dir + "-stack"
		if err := copyDir(dir, stackDir); err != nil {
			return nil, nil, nil, err
		}
	}
	t := newTracer()
	s, err := buildStack(in, t, eng.Alpha(), stackDir)
	if err != nil {
		return nil, nil, nil, err
	}
	defer s.close()
	o, err := newCheckedOracle(eng, s.objs)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := warm(ctx, eng, in); err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := s.warm(ctx, in); err != nil {
		return nil, nil, nil, fmt.Errorf("stack warm-up: %w", err)
	}
	props := inputProperties(eng, s.objs)

	p := runEngine(ctx, eng, in, d)
	v := newVerification()
	lt, err := replay(ctx, s, in, p, v)
	if err != nil {
		return nil, nil, nil, err
	}
	var naive <-chan naiveResult
	if in.w.churn {
		naive = startNaive(eng, in.warmup(1)[0])
	}
	checked := verify(p, in, o, s.vz)
	if in.w.churn {
		finalChecks(eng, o, s.vz, naive, checked)
	}
	// Every operation counts once; it fails if the engine was wrong or
	// the stack disagreed with it.
	for op := range v.bad {
		checked.bad[op] = true
	}
	checked.problems = append(checked.problems, v.problems...)
	addPassProperties(props, p)
	indexLog := ""
	if dir != "" {
		indexLog = dir + "/index.log"
	}
	m := perLayer(lt, s, eng, indexLog)
	if err := t.write(tracePath); err != nil {
		return nil, nil, nil, err
	}
	return m, checked, props, nil
}
