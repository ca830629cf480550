package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// span is one recorded call into a layer: its name, start and end on the
// tracer's monotonic clock, the span that caused it, and the request it
// belongs to. Calls too short to time one by one (storage reads and
// writes, similarity evaluations) are not spans of their own: their
// counts and summed time land in the counters of the enclosing span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    int    `json:"req"`    // operation index, -1 for set-up

	Inner *innerCounters `json:"inner,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// innerCounters aggregates the storage and similarity calls made while a
// span is active, from any goroutine the layer starts. covered is the
// part of the span's interval during which at least one such call was in
// flight (the union of their intervals, not their sum, so parallel
// workers do not count twice); a span's self time subtracts it.
type innerCounters struct {
	GetCalls    atomic.Int64 `json:"-"`
	GetNs       atomic.Int64 `json:"-"`
	PutCalls    atomic.Int64 `json:"-"`
	PutNs       atomic.Int64 `json:"-"`
	ExactCalls  atomic.Int64 `json:"-"`
	BoundsCalls atomic.Int64 `json:"-"`
	VectorNs    atomic.Int64 `json:"-"`

	mu       sync.Mutex
	inflight int
	since    int64
	covered  int64
}

func (c *innerCounters) enter(now int64) {
	c.mu.Lock()
	if c.inflight == 0 {
		c.since = now
	}
	c.inflight++
	c.mu.Unlock()
}

func (c *innerCounters) exit(now int64) {
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.covered += now - c.since
	}
	c.mu.Unlock()
}

func (c *innerCounters) coveredNs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.covered
}

// MarshalJSON writes the counters as plain numbers.
func (c *innerCounters) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]int64{
		"get_calls":    c.GetCalls.Load(),
		"get_ns":       c.GetNs.Load(),
		"put_calls":    c.PutCalls.Load(),
		"put_ns":       c.PutNs.Load(),
		"exact_calls":  c.ExactCalls.Load(),
		"bounds_calls": c.BoundsCalls.Load(),
		"vector_ns":    c.VectorNs.Load(),
		"covered_ns":   c.coveredNs(),
	})
}

// tracer keeps every span in memory; write dumps them when the run ends.
// Spans are opened and closed by the single client goroutine only; the
// storage and similarity wrappers, which layers may call from worker
// goroutines, touch nothing but the active span's atomic counters.
type tracer struct {
	base   time.Time
	spans  []span
	active atomic.Pointer[innerCounters]
	idle   innerCounters // receives calls made outside any layer span
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.active.Store(&t.idle)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// startLayer opens a span whose storage and similarity calls are
// counted on it; it must be closed with endLayer before the next one
// opens.
func (t *tracer) startLayer(name string, parent, req int) int {
	i := t.start(name, parent, req)
	c := &innerCounters{}
	t.spans[i].Inner = c
	t.active.Store(c)
	return i
}

func (t *tracer) endLayer(i int) {
	t.end(i)
	t.active.Store(&t.idle)
}

// selfNs is the span's duration minus the time its inner calls covered.
func (s *span) selfNs() int64 {
	if s.Inner == nil {
		return s.dur()
	}
	return s.dur() - s.Inner.coveredNs()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBlobs counts and times every node read and write of the layers
// above it. It changes nothing else: the index layers see a plain
// storage.Blobs.
type tracedBlobs struct {
	storage.Blobs
	t *tracer
}

func (b *tracedBlobs) Get(id storage.NodeID) ([]byte, error) { return b.GetTracked(id, nil) }

func (b *tracedBlobs) GetTracked(id storage.NodeID, tr *storage.Tracker) ([]byte, error) {
	c := b.t.active.Load()
	t0 := b.t.now()
	c.enter(t0)
	blob, err := b.Blobs.GetTracked(id, tr)
	t1 := b.t.now()
	c.exit(t1)
	c.GetCalls.Add(1)
	c.GetNs.Add(t1 - t0)
	return blob, err
}

func (b *tracedBlobs) Put(data []byte) storage.NodeID { return b.PutTracked(data, nil) }

func (b *tracedBlobs) PutTracked(data []byte, tr *storage.Tracker) storage.NodeID {
	c := b.t.active.Load()
	t0 := b.t.now()
	c.enter(t0)
	id := b.Blobs.PutTracked(data, tr)
	t1 := b.t.now()
	c.exit(t1)
	c.PutCalls.Add(1)
	c.PutNs.Add(t1 - t0)
	return id
}

// tracedSim counts and times every similarity evaluation.
type tracedSim struct {
	vector.TextSim
	t *tracer
}

func (s *tracedSim) Exact(x, y vector.Vector) float64 {
	c := s.t.active.Load()
	t0 := s.t.now()
	c.enter(t0)
	v := s.TextSim.Exact(x, y)
	t1 := s.t.now()
	c.exit(t1)
	c.ExactCalls.Add(1)
	c.VectorNs.Add(t1 - t0)
	return v
}

func (s *tracedSim) Bounds(e1, e2 vector.Envelope) (lo, hi float64) {
	c := s.t.active.Load()
	t0 := s.t.now()
	c.enter(t0)
	lo, hi = s.TextSim.Bounds(e1, e2)
	t1 := s.t.now()
	c.exit(t1)
	c.BoundsCalls.Add(1)
	c.VectorNs.Add(t1 - t0)
	return lo, hi
}
