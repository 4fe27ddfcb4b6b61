package eval

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/text"
)

// TestSnapshotEngineAnswersIdentical is the persistence oracle: engines
// over an N-Triples round-tripped store and over a memory-mapped snapshot
// image must return exactly the answers of the engine over the freshly
// built store — over the full training corpus plus composed complex
// questions. The NT world re-interns every node (fresh IDs in scan order)
// while the image preserves IDs verbatim; both must be invisible at the
// answer layer.
func TestSnapshotEngineAnswersIdentical(t *testing.T) {
	w := BuildWorld(DefaultWorldConfig(kbgen.Freebase))
	store, ok := w.KB.Store.(*rdf.ShardedStore)
	if !ok {
		t.Fatalf("world store is %T, want *rdf.ShardedStore", w.KB.Store)
	}

	// World B: serialize to N-Triples and load back.
	var nt bytes.Buffer
	if err := store.WriteNTriples(&nt); err != nil {
		t.Fatal(err)
	}
	ntStore, err := rdf.LoadNTriples(bytes.NewReader(nt.Bytes()), store.NumShards())
	if err != nil {
		t.Fatal(err)
	}
	ntEng := core.NewEngine(ntStore, w.KB.Taxonomy, w.Model, w.Stats)

	// World C: snapshot image, opened with the built world's fingerprint.
	path := filepath.Join(t.TempDir(), "world.img")
	if err := snapshot.WriteImageFile(path, store); err != nil {
		t.Fatal(err)
	}
	im, err := snapshot.OpenImage(path, snapshot.OpenOptions{
		ExpectFingerprint: rdf.WorldFingerprint(store, store.NumShards()),
		ExpectShards:      store.NumShards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	imgEng := core.NewEngine(im, w.KB.Taxonomy, w.Model, w.Stats)

	qs := corpus.Questions(w.Pairs)
	if len(qs) == 0 {
		t.Fatal("no corpus questions")
	}
	for _, cp := range corpus.ComposeComplex(w.KB, 17, 20) {
		qs = append(qs, cp.Q)
	}

	diverged := 0
	for _, q := range qs {
		a, aok := w.Engine.Answer(q)
		for _, alt := range []struct {
			name string
			eng  *core.Engine
		}{{"ntriples", ntEng}, {"image", imgEng}} {
			b, bok := alt.eng.Answer(q)
			if aok != bok {
				t.Errorf("[%s] answerability diverges for %q: %v vs %v", alt.name, q, aok, bok)
				diverged++
			} else if aok {
				if a.Value != b.Value || !reflect.DeepEqual(a.Values, b.Values) ||
					a.Path != b.Path || a.Template != b.Template {
					t.Errorf("[%s] answer diverges for %q:\n  built: %q %v (%s)\n  %s: %q %v (%s)",
						alt.name, q, a.Value, a.Values, a.Path, alt.name, b.Value, b.Values, b.Path)
					diverged++
				}
			}
			if diverged > 5 {
				t.Fatalf("too many divergences, stopping")
			}
		}
	}
	t.Logf("compared %d questions across built/ntriples/image worlds", len(qs))

	// Ranking, comparison and listing variants read the same knowledge
	// base through the variant engine's memoized columns.
	vqs := variantQuestions(w)
	answered := 0
	for _, q := range vqs {
		a, aok := w.Engine.AnswerVariant(q)
		if aok {
			answered++
		}
		for _, alt := range []struct {
			name string
			eng  *core.Engine
		}{{"ntriples", ntEng}, {"image", imgEng}} {
			if b, bok := alt.eng.AnswerVariant(q); aok != bok || !reflect.DeepEqual(a, b) {
				t.Errorf("[%s] variant diverges for %q:\n  built: %+v (%v)\n  %s: %+v (%v)", alt.name, q, a, aok, alt.name, b, bok)
			}
		}
	}
	if answered < len(vqs)/2 {
		t.Errorf("only %d of %d variant questions answered", answered, len(vqs))
	}
	t.Logf("compared %d variant questions (%d answered)", len(vqs), answered)
}

// variantQuestions builds ranking, comparison and listing questions over
// the world's rankable (category, predicate word) pairs.
func variantQuestions(w *World) []string {
	var qs []string
	for _, ck := range [][2]string{
		{"city", "population"}, {"country", "area"}, {"person", "height"},
		{"river", "length"}, {"mountain", "elevation"}, {"company", "revenue"},
	} {
		c, k := ck[0], ck[1]
		qs = append(qs,
			"Which "+c+" has the largest "+k+"?",
			"Which "+c+" has the 3rd smallest "+k+"?",
			"List "+c+"s ordered by "+k+"?",
		)
		var names []string
		for _, e := range w.KB.ByCategory[c] {
			label := w.KB.Store.Label(e)
			if len(w.KB.Store.EntitiesByLabel(label)) == 1 {
				names = append(names, text.TitleCase(label))
			}
		}
		if len(names) >= 2 {
			qs = append(qs, "Which "+c+" has more "+k+" , "+names[0]+" or "+names[len(names)-1]+"?")
		}
	}
	return qs
}
