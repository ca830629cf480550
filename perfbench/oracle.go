package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"rstknn/internal/baseline"
	"rstknn/internal/core"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/textual"
	"rstknn/internal/vector"
)

// vectorizer weighs free text against a frozen corpus exactly as the
// engine does: tokens outside the vocabulary are dropped, the rest are
// weighted with the corpus statistics.
type vectorizer struct {
	vocab  *textual.Vocabulary
	scheme textual.Scheme
}

func (v vectorizer) vector(text string) vector.Vector {
	counts := make(map[vector.TermID]int)
	for _, tok := range textual.Tokenize(text) {
		if id, ok := v.vocab.Lookup(tok); ok {
			counts[id]++
		}
	}
	return textual.Weigh(counts, v.scheme, v.vocab)
}

// collection weighs the workload's texts as Build does, with the
// engine's default TF-IDF weighting, and returns the vectorizer and the
// indexed objects.
func collection(in *inputs) (vectorizer, []iurtree.Object) {
	c := textual.NewCorpus(textual.TFIDF)
	for _, o := range in.objects {
		c.Add(o.Text)
	}
	docs := c.Vectors()
	objs := make([]iurtree.Object, len(in.objects))
	for i, o := range in.objects {
		objs[i] = iurtree.Object{ID: o.ID, Loc: pointOf(o.X, o.Y), Doc: docs[i]}
	}
	return vectorizer{vocab: c.Vocab, scheme: c.Scheme}, objs
}

// neighbor is one entry of an object's k-nearest list.
type neighbor struct {
	sim float64
	id  int32
}

// oracle answers reverse queries by exhaustive computation, with the
// definition of internal/baseline's Naive: o is a result when
// SimST(o, q) >= the k-th largest SimST(o, x) over every other object x.
// It keeps each object's k most similar others, so a query costs one
// similarity per object and an insert or delete updates the lists in
// O(N) (a delete recomputes only the lists that held the deleted
// object).
type oracle struct {
	k     int
	alpha float64
	maxD  float64
	sim   vector.TextSim
	sc    *core.Scorer
	objs  []iurtree.Object
	index map[int32]int
	top   [][]neighbor
}

func newOracle(objs []iurtree.Object, k int, alpha, maxD float64, sim vector.TextSim) *oracle {
	o := &oracle{
		k: k, alpha: alpha, maxD: maxD, sim: sim,
		sc:    core.NewScorer(alpha, maxD, sim),
		objs:  append([]iurtree.Object(nil), objs...),
		index: make(map[int32]int, len(objs)),
		top:   make([][]neighbor, len(objs)),
	}
	for i := range o.objs {
		o.index[o.objs[i].ID] = i
	}
	// The N^2 pass is split across the CPUs, one scorer per goroutine.
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sc := core.NewScorer(alpha, maxD, sim)
			for i := p; i < len(o.objs); i += procs {
				o.top[i] = o.nearest(sc, i)
			}
		}(p)
	}
	wg.Wait()
	return o
}

// nearest computes object i's k most similar others from scratch.
func (o *oracle) nearest(sc *core.Scorer, i int) []neighbor {
	list := make([]neighbor, 0, o.k)
	a := &o.objs[i]
	for j := range o.objs {
		if j != i {
			b := &o.objs[j]
			list = o.offer(list, neighbor{sim: sc.Exact(a.Loc, a.Doc, b.Loc, b.Doc), id: b.ID})
		}
	}
	return list
}

// offer inserts n into the descending list if it ranks within the top k.
// A value equal to the current k-th leaves the k-th value unchanged, so
// it is skipped.
func (o *oracle) offer(list []neighbor, n neighbor) []neighbor {
	if len(list) == o.k {
		if n.sim <= list[o.k-1].sim {
			return list
		}
		list = list[:o.k-1]
	}
	pos := len(list)
	for pos > 0 && list[pos-1].sim < n.sim {
		pos--
	}
	list = append(list, neighbor{})
	copy(list[pos+1:], list[pos:])
	list[pos] = n
	return list
}

func (o *oracle) kth(i int) float64 {
	if len(o.top[i]) < o.k {
		return math.Inf(-1)
	}
	return o.top[i][o.k-1].sim
}

// answer returns the sorted result IDs of the reverse query.
func (o *oracle) answer(loc geom.Point, doc vector.Vector) []int32 {
	var out []int32
	for i := range o.objs {
		a := &o.objs[i]
		if o.sc.Exact(a.Loc, a.Doc, loc, doc) >= o.kth(i) {
			out = append(out, a.ID)
		}
	}
	return sortedIDs(out)
}

func (o *oracle) insert(x iurtree.Object) {
	for i := range o.objs {
		a := &o.objs[i]
		o.top[i] = o.offer(o.top[i], neighbor{sim: o.sc.Exact(a.Loc, a.Doc, x.Loc, x.Doc), id: x.ID})
	}
	o.index[x.ID] = len(o.objs)
	o.objs = append(o.objs, x)
	o.top = append(o.top, o.nearest(o.sc, len(o.objs)-1))
}

func (o *oracle) delete(id int32) bool {
	i, ok := o.index[id]
	if !ok {
		return false
	}
	last := len(o.objs) - 1
	o.objs[i], o.top[i] = o.objs[last], o.top[last]
	o.index[o.objs[i].ID] = i
	o.objs, o.top = o.objs[:last], o.top[:last]
	delete(o.index, id)
	for j := range o.top {
		for _, n := range o.top[j] {
			if n.id == id {
				o.top[j] = o.nearest(o.sc, j)
				break
			}
		}
	}
	return true
}

// selfCheck compares the oracle's k-th similarities with
// baseline.KthSimilarities on a prefix of the collection, bit for bit,
// so the faster selection here provably keeps baseline's definition.
func selfCheck(objs []iurtree.Object, k int, alpha, maxD float64, sim vector.TextSim) error {
	const n = 300
	if len(objs) > n {
		objs = objs[:n]
	}
	want := baseline.KthSimilarities(objs, k, alpha, maxD, sim)
	o := newOracle(objs, k, alpha, maxD, sim)
	for i := range objs {
		if got := o.kth(i); got != want[i] {
			return fmt.Errorf("oracle self-check: object %d: k-th similarity %v, baseline %v", objs[i].ID, got, want[i])
		}
	}
	return nil
}
