package bench

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// The pinned workload's deterministic counters are checked in under
// testdata and gate exactly: the paper's simulated I/O per standalone
// query, the shared traversal's physical reads per batch, and the
// copy-on-write path's write amplification and reclamation footprint.
// They are independent of the machine, so any difference is a change in
// the engine's behaviour. A change that means to move them regenerates
// the file with
//
//	RSTKNN_WRITE_CORPUS=1 go test ./internal/bench -run TestWritePinnedGolden
//
// and says in its commit why they moved. Wall-clock and allocation
// figures are not pinned here; perfbench measures those.

const (
	pinnedGoldenPath = "testdata/pinned.golden"
	pinnedSeed       = 7
	// pinnedChurn is the number of delete+insert rounds of the mutation
	// run.
	pinnedChurn = 100
)

// pinnedBatchSizes partition the query stream into shared batches.
var pinnedBatchSizes = []int{1, 4, 16}

// pinnedWorkload builds the pinned workload: the gn profile at seed 7 and
// scale 0.25 (2,500 objects), 16 queries, and one IUR tree over all of
// the objects. Queries run at K = defaultK and alpha = defaultAlpha.
func pinnedWorkload(tb testing.TB) ([]iurtree.Object, []dataset.QueryObject, *builtMethod) {
	tb.Helper()
	cfg := Config{Scale: 0.25, Queries: 16, Seed: pinnedSeed}.withDefaults()
	col, queries := fixture(cfg, defaultN/2)
	methods, err := buildMethods(col.Objects, []method{treeMethods[0]}, cfg.Seed)
	if err != nil {
		tb.Fatal(err)
	}
	return col.Objects, queries, &methods[0]
}

// TestWritePinnedGolden regenerates the golden file. It runs before the
// tests that check the file's sections.
func TestWritePinnedGolden(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate " + pinnedGoldenPath)
	}
	got := pinnedCounters(t)
	if t.Failed() {
		t.Fatal("not writing counters from a failed run")
	}
	if err := os.WriteFile(pinnedGoldenPath, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedGolden reruns each query alone and requires the golden
// file's header and standalone rows. A Workers 4 rerun must reproduce
// every row.
func TestPinnedGolden(t *testing.T) {
	objs, queries, bm := pinnedWorkload(t)
	rows, _ := standaloneRows(t, bm, queries, 1)
	rows4, _ := standaloneRows(t, bm, queries, 4)
	for i, row := range rows {
		if rows4[i] != row {
			t.Errorf("Workers 4 row %q differs from Workers 1 row %q", rows4[i], row)
		}
	}
	checkGolden(t, goldenHeader, pinnedHeader(objs, queries))
	checkGolden(t, goldenAlone, aloneSection(rows))
}

// TestRunBatchBench answers the queries in shared batches of each of
// pinnedBatchSizes and requires the golden batch rows. Every query must
// get exactly its standalone answer and Metrics.
func TestRunBatchBench(t *testing.T) {
	_, queries, bm := pinnedWorkload(t)
	_, alone := standaloneRows(t, bm, queries, 1)
	checkGolden(t, goldenBatch, batchSection(t, bm, queries, alone))
}

// TestRunMutate runs the copy-on-write mutation and requires the golden
// write, retirement and storage rows; mutationRows makes the checks that
// need no golden values.
func TestRunMutate(t *testing.T) {
	objs, _, _ := pinnedWorkload(t)
	checkGolden(t, goldenMutation, mutationSection(t, objs))
}

// TestRunMutateDeterministicCounters reruns the mutation on a fresh
// store and requires the same counters, so a difference from the golden
// rows can only come from the engine, never from the run itself.
func TestRunMutateDeterministicCounters(t *testing.T) {
	objs, _, _ := pinnedWorkload(t)
	a, b := mutationSection(t, objs), mutationSection(t, objs)
	if a != b {
		t.Errorf("mutation reruns differ:\n%s\nvs\n%s", a, b)
	}
}

// The golden file's sections, separated by blank lines.
const (
	goldenHeader = iota
	goldenAlone
	goldenBatch
	goldenMutation
	goldenSections
)

// checkGolden compares got, line by line, with section i of the golden
// file.
func checkGolden(t *testing.T, i int, got string) {
	t.Helper()
	raw, err := os.ReadFile(pinnedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(raw), "\n\n")
	if len(sections) != goldenSections {
		t.Fatalf("%s has %d sections, want %d", pinnedGoldenPath, len(sections), goldenSections)
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(sections[i], "\n"), "\n")
	for j := 0; j < max(len(gotLines), len(wantLines)); j++ {
		var g, w string
		if j < len(gotLines) {
			g = gotLines[j]
		}
		if j < len(wantLines) {
			w = wantLines[j]
		}
		if g != w {
			t.Errorf("%s section %d line %d\n got: %s\nwant: %s", pinnedGoldenPath, i, j+1, g, w)
		}
	}
}

// pinnedCounters runs the pinned workload and renders every section of
// the golden file's text.
func pinnedCounters(t *testing.T) string {
	objs, queries, bm := pinnedWorkload(t)
	rows, alone := standaloneRows(t, bm, queries, 1)
	return strings.Join([]string{
		pinnedHeader(objs, queries),
		aloneSection(rows),
		batchSection(t, bm, queries, alone),
		mutationSection(t, objs),
	}, "\n")
}

func pinnedHeader(objs []iurtree.Object, queries []dataset.QueryObject) string {
	return fmt.Sprintf("# gn profile, seed %d, %d objects, %d queries, K=%d, alpha %g, IUR.\n", pinnedSeed, len(objs), len(queries), defaultK, defaultAlpha) +
		"# Regenerate: RSTKNN_WRITE_CORPUS=1 go test ./internal/bench -run TestWritePinnedGolden\n"
}

func aloneSection(rows []string) string {
	return "# Each query alone: query nodes_read pages_read results result_checksum\n" +
		strings.Join(rows, "\n") + "\n"
}

func batchSection(t *testing.T, bm *builtMethod, queries []dataset.QueryObject, alone []*core.Outcome) string {
	s := "# Shared batches: batch size first_query nodes_read shared_hits pages_read\n"
	for _, size := range pinnedBatchSizes {
		for _, row := range batchRows(t, bm, queries, size, alone) {
			s += row + "\n"
		}
	}
	return s
}

func mutationSection(t *testing.T, objs []iurtree.Object) string {
	return "# Copy-on-write: phase ops writes pages_written retired\n" +
		"#                storage total_bytes live_bytes freed\n" +
		strings.Join(mutationRows(t, objs), "\n") + "\n"
}

// standaloneRows answers each query alone and returns its golden row
// and its outcome.
func standaloneRows(t *testing.T, bm *builtMethod, queries []dataset.QueryObject, workers int) ([]string, []*core.Outcome) {
	rows := make([]string, len(queries))
	outs := make([]*core.Outcome, len(queries))
	for i, q := range queries {
		var tracker storage.Tracker
		out, err := core.RSTkNN(bm.tree, core.Query{Loc: q.Loc, Doc: q.Doc}, core.Options{
			K: defaultK, Alpha: defaultAlpha, Strategy: bm.strategy,
			Workers: workers, Tracker: &tracker,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = fmt.Sprintf("query %d %d %d %d %d", i, out.Metrics.NodesRead,
			tracker.PagesRead(), len(out.Results), resultChecksum(out.Results))
		outs[i] = out
	}
	return rows, outs
}

// batchRows answers the queries in consecutive shared batches of the
// given size (the last may be smaller) and returns one golden row per
// batch. Every query's results and Metrics must equal its standalone
// outcome in alone.
func batchRows(t *testing.T, bm *builtMethod, queries []dataset.QueryObject, size int, alone []*core.Outcome) []string {
	var rows []string
	for lo := 0; lo < len(queries); lo += size {
		hi := min(lo+size, len(queries))
		items := make([]core.BatchItem, 0, hi-lo)
		for _, q := range queries[lo:hi] {
			items = append(items, core.BatchItem{Query: core.Query{Loc: q.Loc, Doc: q.Doc}, K: defaultK})
		}
		var tracker storage.Tracker
		mo, err := core.MultiRSTkNN(bm.tree, items, core.Options{
			Alpha: defaultAlpha, Strategy: bm.strategy, Workers: 1, Tracker: &tracker,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range mo.Outcomes {
			want := alone[lo+i]
			if !slices.Equal(o.Results, want.Results) || o.Metrics != want.Metrics {
				t.Errorf("batch %d: query %d answered %v %+v, standalone %v %+v",
					size, lo+i, o.Results, o.Metrics, want.Results, want.Metrics)
			}
		}
		rows = append(rows, fmt.Sprintf("batch %d %d %d %d %d", size, lo,
			mo.Batch.NodesRead, mo.Batch.SharedHits, tracker.PagesRead()))
	}
	return rows
}

// mutationRows builds a tree over the first half of objs, inserts the
// second half through the copy-on-write path, then runs pinnedChurn
// seeded rounds that delete a random live object and insert a
// replacement. Every retired path goes to an epoch reclaimer; with no
// reader pinned, one TryFree at the end must reclaim all of it.
func mutationRows(t *testing.T, objs []iurtree.Object) []string {
	half := len(objs) / 2
	store := storage.NewStore()
	tree, err := iurtree.Build(objs[:half], iurtree.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	rec := storage.NewReclaimer(store)
	// Freed slots are recycled by later inserts, so the bound cache must
	// forget them, exactly as the engine wires it.
	rec.SetOnFree(tree.InvalidateNode)

	var rows []string
	var tracker storage.Tracker
	var retired int64
	phase := func(name string, ops int) {
		w, p := tracker.Writes(), tracker.PagesWritten()
		// Every COW op re-encodes at least its root-to-leaf path, so it
		// writes at least one blob and retires at least one node.
		if w < int64(ops) || p < w || retired <= 0 {
			t.Errorf("%s: %d ops wrote %d blobs, %d pages and retired %d nodes; want writes >= ops, pages >= writes, retired > 0",
				name, ops, w, p, retired)
		}
		rows = append(rows, fmt.Sprintf("%s %d %d %d %d", name, ops, w, p, retired))
		tracker.Reset()
		retired = 0
	}
	apply := func(next *iurtree.Snapshot, rets []storage.NodeID) {
		tree = next
		retired += int64(len(rets))
		rec.Retire(rets)
	}

	for _, o := range objs[half:] {
		next, rets, err := tree.Insert(o, &tracker)
		if err != nil {
			t.Fatal(err)
		}
		apply(next, rets)
	}
	phase("insert", len(objs)-half)

	rng := rand.New(rand.NewSource(pinnedSeed + 17))
	live := slices.Clone(objs)
	nextID := int32(1 << 20)
	for i := 0; i < pinnedChurn; i++ {
		j := rng.Intn(len(live))
		victim := live[j]
		next, rets, ok, err := tree.Delete(victim.ID, victim.Loc, &tracker)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("churn: live object %d not found", victim.ID)
		}
		apply(next, rets)
		repl := iurtree.Object{
			ID:  nextID,
			Loc: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Doc: victim.Doc,
		}
		nextID++
		next, rets, err = tree.Insert(repl, &tracker)
		if err != nil {
			t.Fatal(err)
		}
		apply(next, rets)
		live[j] = repl
	}
	phase("churn", 2*pinnedChurn)

	rec.TryFree()
	rs := rec.Stats()
	if rs.Pending != 0 || rs.Freed <= 0 {
		t.Errorf("reclaimer: %d pending, %d freed; want 0 pending and some freed with no reader pinned",
			rs.Pending, rs.Freed)
	}
	totalBytes, liveBytes := store.TotalBytes(), store.LiveBytes()
	if liveBytes <= 0 || liveBytes != totalBytes {
		t.Errorf("live bytes %d should be positive and equal total %d after reclamation", liveBytes, totalBytes)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Errorf("tree corrupted by the mutation run: %v", err)
	}
	return append(rows, fmt.Sprintf("storage %d %d %d", totalBytes, liveBytes, rs.Freed))
}
