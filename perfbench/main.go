// Command perfbench is the repository's benchmark. It runs one workload
// against the public rstknn API, checks every answer against an
// exhaustive oracle, and prints its metrics as the last line of standard
// output:
//
//	perfbench --workload point --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it replays the same operations through a stack
// assembled from each layer's public functions, with spans around every
// layer call, and reports the per-layer metrics. README.md lists the
// workloads and metrics. Run it through run.sh, which builds it first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rstknn"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/vector"
)

// buildDir holds everything a run leaves behind, relative to the
// directory the benchmark runs from.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: point, batch, churn or ciur")
	seed := fl.Int64("seed", 1, "seed of the generated inputs")
	seconds := fl.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 for the traced per-layer run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload point|batch|churn|ciur, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)

	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	in := newInputs(w, *seed)
	printLine(stdout, map[string]any{"config": config(w, *seed, *seconds, *trace)})

	var m map[string]metric
	var v *verification
	var props map[string]any
	if *trace == 1 {
		tracePath := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		m, v, props, err = tracedRun(ctx, in, work, d, tracePath)
		if err == nil {
			fmt.Fprintf(stderr, "perfbench: spans written to %s\n", tracePath)
		}
	} else {
		m, v, props, err = untracedRun(ctx, in, work, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	printLine(stdout, map[string]any{"inputs": props})
	for _, p := range v.problems {
		fmt.Fprintf(stderr, "perfbench: wrong: %s\n", p)
	}
	res := result{Correct: v.failed() == 0, Attempted: v.attempted, Failed: v.failed(), Metrics: m}
	printLine(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printLine(w io.Writer, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are printed
	}
	fmt.Fprintln(w, string(buf))
}

// config is printed with every run, so results from different hosts,
// seeds or sizes never compare silently.
func config(w workload, seed int64, seconds, trace int) map[string]any {
	perCall := 1
	if w.batch {
		perCall = batchSize
	}
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"profile":    w.profile.String(),
		"objects":    w.objects,
		"k":          K,
		"batch_size": perCall,
		"clients":    1,
		"loop":       "closed",
		"options":    fmt.Sprintf("rstknn.Options zero value (defaults), Index=%v", w.index),
	}
}

// untracedRun is the --trace 0 run: set-up, a timed closed loop through
// the Engine, then verification of every answer.
func untracedRun(ctx context.Context, in *inputs, work string, d time.Duration) (map[string]metric, *verification, map[string]any, error) {
	eng, _, setup, err := setupEngine(in, work, setupRounds)
	if err != nil {
		return nil, nil, nil, err
	}
	defer eng.Close()
	vz, objs := collection(in)
	o, err := newCheckedOracle(eng, objs)
	if err != nil {
		return nil, nil, nil, err
	}
	props := inputProperties(eng, objs)
	if err := warm(ctx, eng, in); err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	p := runEngine(ctx, eng, in, d)
	var naive <-chan naiveResult
	if in.w.churn {
		naive = startNaive(eng, in.warmup(1)[0])
	}
	v := verify(p, in, o, vz)
	if in.w.churn {
		finalChecks(eng, o, vz, naive, v)
	}
	addPassProperties(props, p)
	return endToEnd(p, eng, setup), v, props, nil
}

// newCheckedOracle builds the oracle over the engine's collection, after
// checking it against internal/baseline on a prefix.
func newCheckedOracle(eng *rstknn.Engine, objs []iurtree.Object) (*oracle, error) {
	sim := vector.ByName("ej")
	maxD := eng.Stats().MaxDistance
	if err := selfCheck(objs, K, eng.Alpha(), maxD, sim); err != nil {
		return nil, err
	}
	return newOracle(objs, K, eng.Alpha(), maxD, sim), nil
}

// inputProperties records what the system's behaviour depends on, so a
// claim about inputs with some property can cite the benchmark's output.
func inputProperties(eng *rstknn.Engine, objs []iurtree.Object) map[string]any {
	st := eng.Stats()
	var terms int
	for _, o := range objs {
		terms += o.Doc.Len()
	}
	return map[string]any{
		"objects":               st.Objects,
		"tree_height":           st.Height,
		"tree_nodes":            st.Nodes,
		"bound_cache_nodes":     iurtree.DefaultBoundCacheNodes,
		"tree_fits_bound_cache": st.Nodes <= int64(iurtree.DefaultBoundCacheNodes),
		"vocabulary":            st.VocabSize,
		"mean_terms_per_doc":    float64(terms) / float64(len(objs)),
	}
}

// addPassProperties adds what the timed loop saw: the share of writes
// among operations and, on batch, the share of logical node reads the
// batch table served.
func addPassProperties(props map[string]any, p *enginePass) {
	var writes, ops int
	for i := range p.recs {
		r := &p.recs[i]
		if r.kind == opQuery {
			ops += r.requests()
		} else {
			writes++
			ops++
		}
	}
	props["operations"] = ops
	props["write_share"] = float64(writes) / float64(ops)
	if p.logical > 0 {
		props["batch_shared_hit_share"] = float64(p.sharedHits) / float64(p.logical)
	}
}

func pointOf(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

// indexed weighs an object's text the way Insert does.
func indexed(o rstknn.Object, vz vectorizer) iurtree.Object {
	return iurtree.Object{ID: o.ID, Loc: pointOf(o.X, o.Y), Doc: vz.vector(o.Text)}
}

// copyDir copies the regular files of a saved index, so the traced stack
// opens its own copy of the files the engine opens.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}
