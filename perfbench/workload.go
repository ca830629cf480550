package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"rstknn"
	"rstknn/internal/dataset"
	"rstknn/internal/geom"
	"rstknn/internal/textual"
	"rstknn/internal/vector"
)

// K is the rank cutoff of every query, the value the paper's experiments
// and internal/bench default to.
const K = 10

// batchSize is the number of requests per BatchQueryStatsCtx call.
const batchSize = 32

// workload is one set of inputs the benchmark runs. README.md gives the
// reason for each.
type workload struct {
	name    string
	profile dataset.Profile
	objects int
	index   rstknn.IndexKind
	batch   bool // answer queries with BatchQueryStatsCtx in batches of batchSize
	churn   bool // Open from disk, mix inserts and deletes into the queries
}

var workloads = []workload{
	{name: "point", profile: dataset.GN, objects: 2500},
	{name: "batch", profile: dataset.GN, objects: 2500, batch: true},
	{name: "churn", profile: dataset.SB, objects: 2500, churn: true},
	{name: "ciur", profile: dataset.Topical, objects: 5000, index: rstknn.CIUR},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is the only place the benchmark configures the engine: the
// zero value everywhere, except the index kind on ciur.
func (w workload) options() rstknn.Options { return rstknn.Options{Index: w.index} }

// Churn mix: of every ten operations about eight are queries, one an
// insert of a fresh ID and one a delete of a live ID.
const (
	insertShare = 0.1
	deleteShare = 0.1
)

type opKind int

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"query", "insert", "delete"}[k]
}

// op is one client operation. Batches are runs of batchSize consecutive
// query ops.
type op struct {
	kind opKind
	q    rstknn.QueryRequest // opQuery
	obj  rstknn.Object       // opInsert
	id   int32               // opDelete
}

// inputs is everything a run feeds the engine, derived from the seed
// alone.
type inputs struct {
	w       workload
	col     *dataset.Collection
	vocab   *textual.Vocabulary // synthetic term names for rendering
	objects []rstknn.Object
	space   geom.Rect // bounding box of the initial collection

	seed    int64
	rng     *rand.Rand
	chunk   int64
	pending []dataset.QueryObject // generated query objects not yet used
	live    []int32               // churn: IDs live after the ops generated so far
	nextID  int32
	ops     []op
}

func newInputs(w workload, seed int64) *inputs {
	col := dataset.Generate(w.profile, dataset.Params{N: w.objects, Seed: seed})
	in := &inputs{
		w:      w,
		col:    col,
		vocab:  dataset.SyntheticVocabulary(col.Params.Vocab),
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		space:  geom.EmptyRect(),
		nextID: int32(w.objects),
	}
	in.objects = make([]rstknn.Object, len(col.Objects))
	for i, o := range col.Objects {
		in.objects[i] = rstknn.Object{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Text: in.render(o.Doc)}
		in.space = in.space.Extend(o.Loc)
		in.live = append(in.live, o.ID)
	}
	return in
}

// render writes a generated document as free text: each term's
// synthetic name, repeated by its generated weight (1 to 3 times), so
// the engine's own tokenizer and TF-IDF weighting see realistic term
// frequencies.
func (in *inputs) render(doc vector.Vector) string {
	var sb strings.Builder
	for i := 0; i < doc.Len(); i++ {
		n := int(doc.Weight(i))
		if n < 1 {
			n = 1
		}
		for ; n > 0; n-- {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(in.vocab.Term(doc.Term(i)))
		}
	}
	return sb.String()
}

// nextQueryObject returns the next query-shaped object of the stream:
// located near a random indexed object, with a document drawn from the
// collection's term distribution. Streams are generated in chunks, each
// from its own derived seed, so the stream is the same however far a
// run reads into it.
func (in *inputs) nextQueryObject() dataset.QueryObject {
	if len(in.pending) == 0 {
		in.chunk++
		in.pending = in.col.Queries(256, in.seed*7919+in.chunk)
	}
	q := in.pending[0]
	in.pending = in.pending[1:]
	return q
}

// op returns operation i, generating the stream up to it.
func (in *inputs) op(i int) op {
	for len(in.ops) <= i {
		in.ops = append(in.ops, in.generate())
	}
	return in.ops[i]
}

func (in *inputs) generate() op {
	if in.w.churn {
		r := in.rng.Float64()
		switch {
		case r < insertShare:
			q := in.nextQueryObject()
			// Inserts stay inside the initial bounding box, so the
			// normalization distance (the box diagonal) never changes.
			x := math.Max(in.space.Min.X, math.Min(in.space.Max.X, q.Loc.X))
			y := math.Max(in.space.Min.Y, math.Min(in.space.Max.Y, q.Loc.Y))
			o := rstknn.Object{ID: in.nextID, X: x, Y: y, Text: in.render(q.Doc)}
			in.nextID++
			in.live = append(in.live, o.ID)
			return op{kind: opInsert, obj: o}
		case r < insertShare+deleteShare && len(in.live) > K+1:
			j := in.rng.Intn(len(in.live))
			id := in.live[j]
			in.live[j] = in.live[len(in.live)-1]
			in.live = in.live[:len(in.live)-1]
			return op{kind: opDelete, id: id}
		}
	}
	q := in.nextQueryObject()
	return op{kind: opQuery, q: rstknn.QueryRequest{X: q.Loc.X, Y: q.Loc.Y, Text: in.render(q.Doc), K: K}}
}

// warmup returns a few queries from a stream of their own, run before
// timing so lazy set-up (the bound cache, pooled scratch) is done.
func (in *inputs) warmup(n int) []rstknn.QueryRequest {
	out := make([]rstknn.QueryRequest, n)
	for i, q := range in.col.Queries(n, in.seed*7919-1) {
		out[i] = rstknn.QueryRequest{X: q.Loc.X, Y: q.Loc.Y, Text: in.render(q.Doc), K: K}
	}
	return out
}

// sortedIDs returns a sorted copy.
func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
