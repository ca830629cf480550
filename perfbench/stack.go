package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rstknn"
	"rstknn/internal/cluster"
	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/textual"
	"rstknn/internal/vector"
)

// stack is the engine rebuilt from each layer's public functions, with a
// span around every call into a layer. It mirrors what the Engine does
// with default Options: TF-IDF text, Extended Jaccard similarity, 4 KiB
// pages, the default bound cache, 8 clusters on CIUR, and intra-query
// workers left at their default. The traced run checks every answer of
// the stack against the Engine's, so a change in how the Engine routes
// an operation shows as a failed run rather than as wrong layer numbers.
type stack struct {
	t     *tracer
	vz    vectorizer
	objs  []iurtree.Object // the initial collection, vectorized
	sim   *tracedSim
	tree  *iurtree.Snapshot
	rec   *storage.Reclaimer
	close func() error
	locs  map[int32]geom.Point
	alpha float64
}

// buildStack assembles the layers. In memory it builds the tree; on
// churn it opens the saved index in dir.
func buildStack(in *inputs, t *tracer, alpha float64, dir string) (*stack, error) {
	s := &stack{
		t:     t,
		sim:   &tracedSim{TextSim: vector.ByName("ej"), t: t},
		close: func() error { return nil },
		locs:  make(map[int32]geom.Point, len(in.objects)),
		alpha: alpha,
	}
	if dir == "" {
		if err := s.build(in); err != nil {
			return nil, err
		}
	} else if err := s.open(dir); err != nil {
		s.close()
		return nil, err
	}
	for _, o := range s.objs {
		s.locs[o.ID] = o.Loc
	}
	s.rec = storage.NewReclaimer(s.tree.Store())
	s.rec.SetOnFree(s.tree.InvalidateNode)
	return s, nil
}

// build mirrors Build: weigh the texts, cluster them on CIUR, build the
// tree over an in-memory store.
func (s *stack) build(in *inputs) error {
	t := s.t
	sp := t.start("textual.corpus", -1, -1)
	s.vz, s.objs = collection(in)
	t.end(sp)
	cfg := iurtree.Config{Store: &tracedBlobs{Blobs: storage.NewStore(storage.WithPageSize(storage.DefaultPageSize)), t: t}}
	if in.w.index == rstknn.CIUR {
		docs := make([]vector.Vector, len(s.objs))
		for i := range s.objs {
			docs[i] = s.objs[i].Doc
		}
		sp := t.start("cluster.run", -1, -1)
		cfg.Clustering = cluster.Run(docs, cluster.Config{K: 8})
		t.end(sp)
	}
	sp = t.startLayer("iurtree.build", -1, -1)
	tree, err := iurtree.Build(s.objs, cfg)
	t.endLayer(sp)
	s.tree = tree
	return err
}

// open mirrors Open: load the vocabulary and the object table, open the
// node log and the tree header, and free the header slot so the next
// save recycles it.
func (s *stack) open(dir string) error {
	t := s.t
	headerID, err := savedHeader(dir)
	if err != nil {
		return err
	}
	sp := t.start("textual.vocab_load", -1, -1)
	vf, err := os.Open(filepath.Join(dir, "vocab.csv"))
	if err != nil {
		return err
	}
	vocab, err := textual.LoadVocabulary(vf)
	vf.Close()
	t.end(sp)
	if err != nil {
		return err
	}
	s.vz = vectorizer{vocab: vocab, scheme: textual.TFIDF}
	sp = t.start("dataset.load", -1, -1)
	s.objs, err = dataset.LoadFile(filepath.Join(dir, "objects.csv"), vocab)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.start("storage.open", -1, -1)
	fs, err := storage.OpenFileStore(filepath.Join(dir, "index.log"), storage.WithPageSize(storage.DefaultPageSize))
	t.end(sp)
	if err != nil {
		return err
	}
	s.close = fs.Close
	sp = t.startLayer("iurtree.open", -1, -1)
	s.tree, err = iurtree.Open(&tracedBlobs{Blobs: fs, t: t}, headerID)
	t.endLayer(sp)
	if err != nil {
		return err
	}
	fs.Retire(headerID)
	return fs.Free(headerID)
}

// savedHeader reads the tree header's blob ID from a saved index.
func savedHeader(dir string) (storage.NodeID, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return 0, err
	}
	var meta struct {
		HeaderID int32 `json:"header_id"`
	}
	if err := json.Unmarshal(buf, &meta); err != nil {
		return 0, fmt.Errorf("meta.json: %w", err)
	}
	return storage.NodeID(meta.HeaderID), nil
}

// warm replays the engine's warm-up queries.
func (s *stack) warm(ctx context.Context, in *inputs) error {
	reqs := in.warmup(8)
	if in.w.batch {
		_, _, err := s.batch(ctx, -1, reqs)
		return err
	}
	for _, q := range reqs {
		if _, _, err := s.query(ctx, -1, q); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) coreOptions(ctx context.Context, k int, tr *storage.Tracker) core.Options {
	return core.Options{K: k, Alpha: s.alpha, Sim: s.sim, Strategy: core.RefineByMaxUpper, Ctx: ctx, Tracker: tr}
}

// stackQuery is the stack's answer to one request.
type stackQuery struct {
	out     *core.Outcome
	tracker storage.Tracker
}

// opSpans names the spans one operation opened.
type opSpans struct {
	root      int
	vectorize []int
	layer     int // core.rstknn, core.multi, iurtree.insert or iurtree.delete
	reclaim   int // -1 unless a write
}

func (s *stack) query(ctx context.Context, req int, q rstknn.QueryRequest) (*stackQuery, opSpans, error) {
	t := s.t
	sp := opSpans{root: t.start("rstknn.query", -1, req), reclaim: -1}
	v := t.start("textual.vectorize", sp.root, req)
	doc := s.vz.vector(q.Text)
	t.end(v)
	sp.vectorize = []int{v}
	tok := s.rec.Pin()
	res := &stackQuery{}
	sp.layer = t.startLayer("core.rstknn", sp.root, req)
	out, err := core.RSTkNN(s.tree, core.Query{Loc: pointOf(q.X, q.Y), Doc: doc}, s.coreOptions(ctx, q.K, &res.tracker))
	t.endLayer(sp.layer)
	s.rec.Release(tok)
	t.end(sp.root)
	res.out = out
	return res, sp, err
}

// stackBatch is the stack's answer to one batch.
type stackBatch struct {
	mo       *core.MultiOutcome
	trackers []storage.Tracker
	batch    storage.Tracker
}

func (s *stack) batch(ctx context.Context, req int, reqs []rstknn.QueryRequest) (*stackBatch, opSpans, error) {
	t := s.t
	sp := opSpans{root: t.start("rstknn.batch", -1, req), reclaim: -1}
	res := &stackBatch{trackers: make([]storage.Tracker, len(reqs))}
	items := make([]core.BatchItem, len(reqs))
	for i, q := range reqs {
		v := t.start("textual.vectorize", sp.root, req+i)
		doc := s.vz.vector(q.Text)
		t.end(v)
		sp.vectorize = append(sp.vectorize, v)
		items[i] = core.BatchItem{Query: core.Query{Loc: pointOf(q.X, q.Y), Doc: doc}, K: q.K, Tracker: &res.trackers[i]}
	}
	tok := s.rec.Pin()
	sp.layer = t.startLayer("core.multi", sp.root, req)
	mo, err := core.MultiRSTkNN(s.tree, items, s.coreOptions(ctx, 0, &res.batch))
	t.endLayer(sp.layer)
	s.rec.Release(tok)
	t.end(sp.root)
	res.mo = mo
	return res, sp, err
}

// stackWrite is the stack's account of one insert or delete.
type stackWrite struct {
	tracker storage.Tracker
	retired int
	found   bool
}

func (s *stack) insert(req int, o rstknn.Object) (*stackWrite, opSpans, error) {
	t := s.t
	sp := opSpans{root: t.start("rstknn.insert", -1, req)}
	v := t.start("textual.vectorize", sp.root, req)
	obj := indexed(o, s.vz)
	t.end(v)
	sp.vectorize = []int{v}
	res := &stackWrite{}
	sp.layer = t.startLayer("iurtree.insert", sp.root, req)
	next, retired, err := s.tree.Insert(obj, &res.tracker)
	t.endLayer(sp.layer)
	if err != nil {
		t.end(sp.root)
		sp.reclaim = -1
		return nil, sp, err
	}
	s.publish(next, retired, req, &sp)
	t.end(sp.root)
	s.locs[o.ID] = obj.Loc
	res.retired = len(retired)
	return res, sp, nil
}

func (s *stack) delete(req int, id int32) (*stackWrite, opSpans, error) {
	t := s.t
	sp := opSpans{root: t.start("rstknn.delete", -1, req)}
	res := &stackWrite{}
	loc, ok := s.locs[id]
	if !ok {
		sp.layer, sp.reclaim = -1, -1
		t.end(sp.root)
		return res, sp, nil
	}
	sp.layer = t.startLayer("iurtree.delete", sp.root, req)
	next, retired, found, err := s.tree.Delete(id, loc, &res.tracker)
	t.endLayer(sp.layer)
	if err != nil {
		t.end(sp.root)
		sp.reclaim = -1
		return nil, sp, err
	}
	res.found = found
	s.publish(next, retired, req, &sp)
	t.end(sp.root)
	delete(s.locs, id)
	res.retired = len(retired)
	return res, sp, nil
}

// publish swaps in the successor tree, then retires the superseded
// nodes, in the Engine's order.
func (s *stack) publish(next *iurtree.Snapshot, retired []storage.NodeID, req int, sp *opSpans) {
	s.tree = next
	sp.reclaim = s.t.startLayer("storage.reclaim", sp.root, req)
	s.rec.Retire(retired)
	s.t.endLayer(sp.reclaim)
}
