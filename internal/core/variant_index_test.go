package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/text"
)

// TestVariantMemoMatchesScan checks every (category, numeric path) pair
// of the default world, over the in-memory store and over a KB image:
// the memoized numericPredicate and rankCategory, cold and warm, must
// equal the scans that fill them.
func TestVariantMemoMatchesScan(t *testing.T) {
	f := world(t)
	store, ok := f.kb.Store.(*rdf.Store)
	if !ok {
		t.Fatalf("world store is %T, want *rdf.Store", f.kb.Store)
	}
	path := filepath.Join(t.TempDir(), "world.img")
	if err := snapshot.WriteImageFile(path, rdf.Shard(store, 4)); err != nil {
		t.Fatal(err)
	}
	im, err := snapshot.OpenImage(path, snapshot.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()

	var cats []string
	for c := range f.kb.ByCategory {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, kb := range []struct {
		name string
		g    rdf.Graph
	}{{"store", f.kb.Store}, {"image", im}} {
		e := NewEngine(kb.g, f.kb.Taxonomy, f.model, nil)
		var numeric []string
		for p := range e.variants.numeric {
			want := e.scanNumericPredicate(p)
			for round := 0; round < 2; round++ {
				if got := e.variants.numericPredicate(e, p); got != want {
					t.Errorf("[%s] numericPredicate(%q) round %d = %v, scan says %v", kb.name, p, round, got, want)
				}
			}
			if want {
				numeric = append(numeric, p)
			}
		}
		if len(numeric) == 0 {
			t.Fatalf("[%s] no numeric predicate among %d indexed paths", kb.name, len(e.variants.numeric))
		}
		sort.Strings(numeric)
		ranked := 0
		for _, c := range cats {
			for _, p := range numeric {
				for _, desc := range []bool{true, false} {
					want := e.scanRankCategory(c, p, desc)
					for round := 0; round < 2; round++ {
						if got := e.rankCategory(c, p, desc); !reflect.DeepEqual(got, want) {
							t.Fatalf("[%s] rankCategory(%q, %q, %v) round %d diverges from the scan", kb.name, c, p, desc, round)
						}
					}
					if len(want) > 0 {
						ranked++
					}
				}
			}
		}
		if ranked == 0 {
			t.Fatalf("[%s] no non-empty ranked column", kb.name)
		}
		if n, asked := len(e.variants.columns), 2*len(cats)*len(numeric); n != asked {
			t.Errorf("[%s] %d memoized columns, want one per asked key (%d)", kb.name, n, asked)
		}
	}
}

// TestVariantMemoBounded checks that keys outside the schema (a category
// that is no taxonomy concept, a path no template maps to) are answered
// but not memoized.
func TestVariantMemoBounded(t *testing.T) {
	f := world(t)
	e := NewEngine(f.kb.Store, f.kb.Taxonomy, f.model, nil)
	e.rankCategory("no such category", "population", true)
	e.rankCategory("city", "no such path", true)
	e.variants.numericPredicate(e, "no such path")
	if n := len(e.variants.columns); n != 0 {
		t.Errorf("%d columns memoized for out-of-schema keys", n)
	}
	if e.variants.numeric["no such path"] != nil {
		t.Error("numeric flag added for an unindexed path")
	}
}

// flakyGraph is a knowledge base whose index reads fail while down: they
// answer empty and record the failure, the way shardrpc.KB's ctx-less
// reads do during a shard outage.
type flakyGraph struct {
	rdf.Graph
	down atomic.Bool
}

var errShardDown = errors.New("shard down")

func (g *flakyGraph) Err() error {
	if g.down.Load() {
		return errShardDown
	}
	return nil
}

func (g *flakyGraph) PathObjects(subj rdf.ID, path rdf.Path) []rdf.ID {
	if g.down.Load() {
		return nil
	}
	return g.Graph.PathObjects(subj, path)
}

func (g *flakyGraph) Subjects(pred rdf.PID, obj rdf.ID) []rdf.ID {
	if g.down.Load() {
		return nil
	}
	return g.Graph.Subjects(pred, obj)
}

// TestVariantMemoSkipsFailedReads checks that a fill made while the
// knowledge base reports a read failure is returned but not stored, so
// the engine answers again once the knowledge base recovers.
func TestVariantMemoSkipsFailedReads(t *testing.T) {
	f := world(t)
	g := &flakyGraph{Graph: f.kb.Store}
	e := NewEngine(g, f.kb.Taxonomy, f.model, nil)
	const q = "Which city has the largest population?"

	g.down.Store(true)
	if e.variants.numericPredicate(e, "population") {
		t.Error("numericPredicate true with every read failing")
	}
	if col := e.rankCategory("city", "population", true); len(col) != 0 {
		t.Errorf("rankCategory returned %d rows with every read failing", len(col))
	}
	if ans, ok := e.AnswerVariant(q); ok {
		t.Errorf("answered during the outage: %+v", ans)
	}
	if n := len(e.variants.columns); n != 0 {
		t.Errorf("%d columns memoized during the outage", n)
	}
	if v := e.variants.numeric["population"].Load(); v != flagUnknown {
		t.Errorf("numeric flag stored during the outage: %d", v)
	}

	g.down.Store(false)
	want, ok := f.engine.AnswerVariant(q)
	if !ok {
		t.Fatalf("reference engine does not answer %q", q)
	}
	for round := 0; round < 2; round++ {
		got, ok := e.AnswerVariant(q)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("after recovery, round %d: %+v (ok %v), want %+v", round, got, ok, want)
		}
	}
	if v := e.variants.numeric["population"].Load(); v != flagNumeric {
		t.Errorf("numeric flag after recovery = %d, want numeric", v)
	}
	if _, ok := e.variants.columns[columnKey{category: "city", path: "population", desc: true}]; !ok {
		t.Error("column not memoized after recovery")
	}
}

// TestVariantConcurrentColdMemo sends variant questions from several
// goroutines to a fresh engine whose memos are all cold, so fills race
// with each other and with reads (run under -race); every answer must
// equal the warm shared engine's.
func TestVariantConcurrentColdMemo(t *testing.T) {
	f := world(t)
	ranked := f.engine.rankCategory("city", "population", true)
	if len(ranked) < 2 {
		t.Fatal("too few cities")
	}
	questions := []string{
		"Which city has the 3rd largest population?",
		"Which city has the smallest area?",
		"List cities ordered by population?",
		"Give me countries sorted by area?",
		"Which person has the tallest height?",
		"Which mountain has the highest elevation?",
		"Which city has more people , " + text.TitleCase(ranked[0].label) + " or " + text.TitleCase(ranked[1].label) + "?",
	}
	want := make([]VariantAnswer, len(questions))
	answered := 0
	for i, q := range questions {
		if a, ok := f.engine.AnswerVariant(q); ok {
			want[i] = a
			answered++
		}
	}
	if answered < 3 {
		t.Fatalf("only %d of %d reference questions answered", answered, len(questions))
	}

	e := NewEngine(f.kb.Store, f.kb.Taxonomy, f.model, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(questions))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range questions {
				q := questions[(i+g)%len(questions)]
				got, _ := e.AnswerVariant(q)
				if !reflect.DeepEqual(got, want[(i+g)%len(questions)]) {
					errs <- q
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("cold concurrent variant answer diverged for %q", q)
	}
}
