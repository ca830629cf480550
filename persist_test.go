package rstknn

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	objects := genRestaurants(rng, 300)
	for _, opt := range []Options{
		{},
		{Index: CIUR, Clusters: 5, OutlierThreshold: 0.1},
		{Weighting: "binary", Measure: "cosine", Alpha: 0.3},
	} {
		eng, err := Build(objects, opt)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "idx")
		if err := eng.Save(dir); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Identical answers for a spread of queries.
		for trial := 0; trial < 5; trial++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			text := menuTerms[rng.Intn(len(menuTerms))] + " " + menuTerms[rng.Intn(len(menuTerms))]
			k := 1 + rng.Intn(6)
			a, err := eng.Query(x, y, text, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := re.Query(x, y, text, k)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("reopened engine disagrees: %v vs %v", a.IDs, b.IDs)
			}
		}
		// Index statistics survive.
		sa, sb := eng.Stats(), re.Stats()
		if sa.Objects != sb.Objects || sa.Height != sb.Height ||
			sa.Clusters != sb.Clusters || sa.MaxDistance != sb.MaxDistance ||
			sa.VocabSize != sb.VocabSize {
			t.Errorf("stats differ: %+v vs %+v", sa, sb)
		}
		if err := re.Close(); err != nil {
			t.Error(err)
		}
		if err := eng.Close(); err != nil { // no-op for in-memory engines
			t.Error(err)
		}
	}
}

func TestSaveOpenEmptyEngine(t *testing.T) {
	eng, err := Build(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "empty")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query(0, 0, "anything", 3)
	if err != nil || len(res.IDs) != 0 {
		t.Errorf("empty reopened engine: %v, %v", res, err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir should fail")
	}
	// Corrupt meta.json.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{nope"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("corrupt meta should fail")
	}
	// Wrong version.
	os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"version": 99}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("future version should fail")
	}
}

func TestOpenDetectsObjectCountMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	eng, err := Build(genRestaurants(rng, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Truncate objects.csv to a single line.
	path := filepath.Join(dir, "objects.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b == '\n' {
			os.WriteFile(path, data[:i+1], 0o644)
			break
		}
	}
	if _, err := Open(dir); err == nil {
		t.Error("object count mismatch should fail")
	}
}

func TestReopenedEngineChargesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eng, err := Build(genRestaurants(rng, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query(50, 50, "sushi", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PageAccesses == 0 {
		t.Error("reopened engine should charge simulated I/O")
	}
}

func TestSaveTwiceIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	eng, err := Build(genRestaurants(rng, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1 := filepath.Join(t.TempDir(), "a")
	d2 := filepath.Join(t.TempDir(), "b")
	if err := eng.Save(d1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(d2); err != nil {
		t.Fatal(err)
	}
	r1, err := Open(d1)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := Open(d2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	a, _ := r1.Query(10, 10, "sushi", 3)
	b, _ := r2.Query(10, 10, "sushi", 3)
	if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
		t.Error("two saves of the same engine disagree")
	}
}

// TestOpenIgnoresRetiredCacheOptions opens an index whose meta.json
// still carries the two removed cache-size options, as indexes saved by
// earlier versions do (testdata/legacy/cache_options.json holds them):
// the keys are ignored — the bound cache stays on at its default size —
// and queries match a fresh save.
func TestOpenIgnoresRetiredCacheOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	eng, err := Build(genRestaurants(rng, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "fresh")
	legacy := filepath.Join(t.TempDir(), "legacy")
	for _, dir := range []string{fresh, legacy} {
		if err := eng.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	metaPath := filepath.Join(legacy, "meta.json")
	buf, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(buf, &meta); err != nil {
		t.Fatal(err)
	}
	legacyOpts, err := os.ReadFile(filepath.Join("testdata", "legacy", "cache_options.json"))
	if err != nil {
		t.Fatal(err)
	}
	opts := meta["options"].(map[string]any)
	before := len(opts)
	if err := json.Unmarshal(legacyOpts, &opts); err != nil {
		t.Fatal(err)
	}
	if len(opts) != before+2 {
		t.Fatalf("legacy options added %d keys to a fresh meta.json, want 2 unknown ones", len(opts)-before)
	}
	if buf, err = json.MarshalIndent(meta, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	rf, err := Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rl, err := Open(legacy)
	if err != nil {
		t.Fatalf("index with retired cache options: %v", err)
	}
	defer rl.Close()
	for trial := 0; trial < 5; trial++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		text := menuTerms[rng.Intn(len(menuTerms))] + " " + menuTerms[rng.Intn(len(menuTerms))]
		k := 1 + rng.Intn(6)
		a, err := rf.Query(x, y, text, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rl.Query(x, y, text, k)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) || a.Stats.NodesRead != b.Stats.NodesRead {
			t.Fatalf("legacy meta.json disagrees: %v (%d reads) vs fresh %v (%d reads)",
				b.IDs, b.Stats.NodesRead, a.IDs, a.Stats.NodesRead)
		}
	}
	if st := rl.Stats(); st.BoundCacheEntries == 0 {
		t.Error("a negative legacy bound-cache size disabled the bound cache; the key should be ignored")
	}
}
