package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"rstknn"
)

// setupRounds is how many times an untraced run sets up; setup_s is the
// median.
const setupRounds = 9

// setupEngine builds the workload's engine rounds times and keeps the
// last one. On churn it builds and saves once, untimed, then times
// Open of the saved directory instead. It returns the engine, the index
// directory (churn only) and the median set-up time.
func setupEngine(in *inputs, work string, rounds int) (*rstknn.Engine, string, time.Duration, error) {
	opt := in.w.options()
	times := make([]time.Duration, 0, rounds)
	if !in.w.churn {
		var eng *rstknn.Engine
		for r := 0; r < rounds; r++ {
			eng = nil
			runtime.GC()
			t0 := time.Now()
			e, err := rstknn.Build(in.objects, opt)
			times = append(times, time.Since(t0))
			if err != nil {
				return nil, "", 0, fmt.Errorf("build: %w", err)
			}
			eng = e
		}
		return eng, "", medianDuration(times), nil
	}

	src, err := rstknn.Build(in.objects, opt)
	if err != nil {
		return nil, "", 0, fmt.Errorf("build: %w", err)
	}
	dir := filepath.Join(work, "index")
	if err := src.Save(dir); err != nil {
		return nil, "", 0, fmt.Errorf("save: %w", err)
	}
	src = nil
	var eng *rstknn.Engine
	for r := 0; r < rounds; r++ {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return nil, "", 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		e, err := rstknn.Open(dir)
		times = append(times, time.Since(t0))
		if err != nil {
			return nil, "", 0, fmt.Errorf("open: %w", err)
		}
		eng = e
	}
	return eng, dir, medianDuration(times), nil
}

// record is one timed engine call: a single query, a batch, or a write.
type record struct {
	first   int // index of the call's first op
	kind    opKind
	dur     time.Duration
	err     error
	results []*rstknn.Result // one per request; nil entries failed
	errs    []error          // per-request errors of a batch
	batch   rstknn.BatchStats
	update  *rstknn.UpdateStats
	found   bool // delete

	allocBytes, allocObjects, gcCycles uint64
}

// requests is the number of query requests the record answered.
func (r *record) requests() int {
	if r.kind != opQuery {
		return 0
	}
	return len(r.results)
}

// runtimeSample reads the runtime/metrics the benchmark reports.
type runtimeSample struct {
	s []metrics.Sample
}

const (
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
)

func newRuntimeSample() *runtimeSample {
	names := []string{mHeapObjects, mAllocBytes, mAllocObjects, mGCCycles, mGCCPU, mTotalCPU}
	rs := &runtimeSample{s: make([]metrics.Sample, len(names))}
	for i, n := range names {
		rs.s[i].Name = n
	}
	return rs
}

func (rs *runtimeSample) read() { metrics.Read(rs.s) }

func (rs *runtimeSample) uint(name string) uint64 {
	for _, s := range rs.s {
		if s.Name == name && s.Value.Kind() == metrics.KindUint64 {
			return s.Value.Uint64()
		}
	}
	return 0
}

func (rs *runtimeSample) float(name string) float64 {
	for _, s := range rs.s {
		if s.Name == name && s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
	}
	return 0
}

// enginePass is the closed loop of one client against the engine.
type enginePass struct {
	recs       []record
	heap       heapTrack
	gcCPU      float64 // GC CPU seconds during the loop
	totalCPU   float64 // all CPU seconds during the loop
	sharedHits int64   // batch: logical reads served by the batch table
	logical    int64   // batch: logical node reads
}

// heapTrack follows the Go heap in use, sampled after every operation.
// The peak is taken per GC cycle and reported as the median over cycles:
// the largest sample of a whole run depends on where collections happen
// to fall, and it varied about three times as much from run to run.
type heapTrack struct {
	cycle uint64
	peak  uint64    // highest sample of the current cycle
	peaks []float64 // highest sample of every finished cycle
}

func (h *heapTrack) sample(cycle, inUse uint64) {
	if cycle != h.cycle && h.peak > 0 {
		h.peaks = append(h.peaks, float64(h.peak))
		h.peak = 0
	}
	h.cycle = cycle
	if inUse > h.peak {
		h.peak = inUse
	}
}

// medianPeak is the median of the finished cycles' peaks, or the current
// cycle's when none finished.
func (h *heapTrack) medianPeak() float64 {
	if len(h.peaks) == 0 {
		return float64(h.peak)
	}
	return quantile(h.peaks, 0.5)
}

// warm runs a few queries of their own stream before timing, so the
// bound cache and pooled scratch are warm; they are not verified.
func warm(ctx context.Context, eng *rstknn.Engine, in *inputs) error {
	reqs := in.warmup(8)
	if in.w.batch {
		out, _ := eng.BatchQueryStatsCtx(ctx, reqs, 0)
		for _, r := range out {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	for _, q := range reqs {
		if _, err := eng.QueryCtx(ctx, q.X, q.Y, q.Text, q.K); err != nil {
			return err
		}
	}
	return nil
}

// runEngine issues the workload's operations for the given duration,
// one at a time, timing each call and sampling the heap after it.
func runEngine(ctx context.Context, eng *rstknn.Engine, in *inputs, d time.Duration) *enginePass {
	p := &enginePass{}
	before, after := newRuntimeSample(), newRuntimeSample()
	runtime.GC()
	before.read()
	cpu0, gc0 := before.float(mTotalCPU), before.float(mGCCPU)
	start := time.Now()
	for i := 0; time.Since(start) < d; {
		rec := record{first: i, kind: in.op(i).kind}
		var reqs []rstknn.QueryRequest
		if in.w.batch {
			for j := 0; j < batchSize; j++ {
				reqs = append(reqs, in.op(i+j).q)
			}
		}
		o := in.op(i)
		var out []rstknn.BatchResult
		var res *rstknn.Result
		before.read()
		t0 := time.Now()
		switch {
		case in.w.batch:
			out, rec.batch = eng.BatchQueryStatsCtx(ctx, reqs, 0)
		case o.kind == opQuery:
			res, rec.err = eng.QueryCtx(ctx, o.q.X, o.q.Y, o.q.Text, o.q.K)
		case o.kind == opInsert:
			rec.update, rec.err = eng.Insert(o.obj)
		case o.kind == opDelete:
			rec.found, rec.update, rec.err = eng.Delete(o.id)
		}
		rec.dur = time.Since(t0)
		after.read()
		p.heap.sample(after.uint(mGCCycles), after.uint(mHeapObjects))
		rec.allocBytes = after.uint(mAllocBytes) - before.uint(mAllocBytes)
		rec.allocObjects = after.uint(mAllocObjects) - before.uint(mAllocObjects)
		rec.gcCycles = after.uint(mGCCycles) - before.uint(mGCCycles)
		if o.kind == opQuery && !in.w.batch {
			rec.results = []*rstknn.Result{res}
		}
		for _, r := range out {
			rec.results = append(rec.results, r.Result)
			rec.errs = append(rec.errs, r.Err)
		}
		if in.w.batch {
			p.sharedHits += int64(rec.batch.SharedHits)
			p.logical += int64(rec.batch.SharedHits + rec.batch.NodesRead)
			i += batchSize
		} else {
			i++
		}
		p.recs = append(p.recs, rec)
	}
	after.read()
	p.totalCPU = after.float(mTotalCPU) - cpu0
	p.gcCPU = after.float(mGCCPU) - gc0
	return p
}

// verification is the outcome of checking a pass against the oracle.
type verification struct {
	attempted int
	bad       map[int]bool // failed operations; negative keys are final checks
	problems  []string
}

func newVerification() *verification { return &verification{bad: map[int]bool{}} }

// fail marks operation op as failed (an op below 0 names a check of the
// final state) and keeps the first few reasons.
func (v *verification) fail(op int, format string, args ...any) {
	v.bad[op] = true
	if len(v.problems) < 10 {
		v.problems = append(v.problems, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
	}
}

func (v *verification) failed() int { return len(v.bad) }

// verify replays the pass against the oracle, outside the timed loop:
// every answer must equal the exhaustive answer on the same index
// version, and every write must have succeeded.
func verify(p *enginePass, in *inputs, o *oracle, vz vectorizer) *verification {
	v := newVerification()
	for ri := range p.recs {
		r := &p.recs[ri]
		switch r.kind {
		case opQuery:
			for j, res := range r.results {
				v.attempted++
				q := in.op(r.first + j).q
				err := r.err
				if r.errs != nil {
					err = r.errs[j]
				}
				if err != nil || res == nil {
					v.fail(r.first+j, "query failed: %v", err)
					continue
				}
				want := o.answer(pointOf(q.X, q.Y), vz.vector(q.Text))
				if !equalIDs(res.IDs, want) {
					v.fail(r.first+j, "%d result IDs, oracle has %d", len(res.IDs), len(want))
				}
			}
		case opInsert:
			v.attempted++
			obj := in.op(r.first).obj
			if r.err != nil {
				v.fail(r.first, "insert %d: %v", obj.ID, r.err)
				continue
			}
			o.insert(indexed(obj, vz))
		case opDelete:
			v.attempted++
			id := in.op(r.first).id
			existed := o.delete(id)
			if r.err != nil || r.found != existed {
				v.fail(r.first, "delete %d: found %v, oracle %v, err %v", id, r.found, existed, r.err)
			}
		}
	}
	return v
}

// finalChecks runs on churn after the replay: the tree's structural
// invariants, and one query against the engine's own exhaustive
// NaiveQuery on the final index version, compared with the oracle.
func finalChecks(eng *rstknn.Engine, o *oracle, vz vectorizer, naive <-chan naiveResult, v *verification) {
	if err := eng.CheckInvariants(); err != nil {
		v.fail(-1, "final state: %v", err)
	}
	nr := <-naive
	if nr.err != nil {
		v.fail(-2, "final NaiveQuery: %v", nr.err)
		return
	}
	if want := o.answer(pointOf(nr.q.X, nr.q.Y), vz.vector(nr.q.Text)); !equalIDs(nr.ids, want) {
		v.fail(-2, "final NaiveQuery: %d IDs, oracle has %d", len(nr.ids), len(want))
	}
}

type naiveResult struct {
	q   rstknn.QueryRequest
	ids []int32
	err error
}

// startNaive runs NaiveQuery in the background; it takes seconds, so it
// overlaps the oracle replay.
func startNaive(eng *rstknn.Engine, q rstknn.QueryRequest) <-chan naiveResult {
	ch := make(chan naiveResult, 1)
	go func() {
		ids, err := eng.NaiveQuery(q.X, q.Y, q.Text, q.K)
		ch <- naiveResult{q: q, ids: ids, err: err}
	}()
	return ch
}

func equalIDs(got, want []int32) bool {
	got = sortedIDs(got)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// endToEnd computes the untraced run's metrics.
func endToEnd(p *enginePass, eng *rstknn.Engine, setup time.Duration) map[string]metric {
	var lat []float64
	var busy time.Duration
	var requests int
	var pages int64
	var allocs uint64
	for ri := range p.recs {
		r := &p.recs[ri]
		if r.kind != opQuery {
			continue
		}
		busy += r.dur
		requests += r.requests()
		allocs += r.allocObjects
		if r.batch.Requests > 0 {
			pages += r.batch.PageAccesses
		} else if r.results[0] != nil {
			pages += r.results[0].Stats.PageAccesses
		}
		// Every request of a batch waits for the whole batch.
		lat = append(lat, r.dur.Seconds()*1000)
	}
	st := eng.Stats()
	return map[string]metric{
		"setup_s":                 {setup.Seconds(), "s"},
		"query_p50_ms":            {quantile(lat, 0.5), "ms"},
		"query_p90_ms":            {quantile(lat, 0.9), "ms"},
		"query_qps":               {float64(requests) / busy.Seconds(), "1/s"},
		"pages_per_query":         {float64(pages) / float64(requests), "pages"},
		"allocs_per_query":        {float64(allocs) / float64(requests), "count"},
		"stored_bytes_per_object": {float64(st.Bytes) / float64(st.Objects), "bytes"},
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile by linear interpolation between order
// statistics, or 0 for no values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func medianDuration(ds []time.Duration) time.Duration {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(quantile(f, 0.5))
}

// fileSize returns the size of the named file, or 0 when it is missing.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
