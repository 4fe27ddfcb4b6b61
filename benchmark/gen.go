package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/text"
)

// Shape classifies a generated question by the reply the checker expects.
type Shape uint8

// The question shapes the workloads mix.
const (
	ShapeBFQ        Shape = iota // trained paraphrase: an answer is expected
	ShapeRare                    // rare rephrasing: a refusal is expected
	ShapeComplex                 // two-hop question (corpus.ComposeComplex)
	ShapeOffKB                   // no KB entity: a refusal is expected
	ShapeRanking                 // "which city has the 3rd largest population"
	ShapeComparison              // "which city has more population , a or b"
	ShapeListing                 // "list cities ordered by population"
	numShapes
)

var shapeNames = [numShapes]string{"bfq", "rare", "complex", "off_kb", "ranking", "comparison", "listing"}

func (s Shape) String() string { return shapeNames[s] }

// Variant reports whether the shape is answered by the variant engine.
func (s Shape) Variant() bool { return s >= ShapeRanking }

// Question is one generated question with its gold annotation.
type Question struct {
	Text  string
	Shape Shape
	// GoldPath is the intended predicate path of BFQ and rare questions.
	GoldPath string
	// Gold holds the acceptable answer values (BFQ, rare, complex), or the
	// expected entities in order (variants: one for ranking and
	// comparison, the capped list for listing).
	Gold []string
	// Pool is the question's index in its workload pool, used for the
	// answer-consistency check; -1 when the question is drawn fresh.
	Pool int
}

// World is the generator's view of a knowledge base: the KB itself plus
// the question pools drawn from it. It is built from kbgen with the same
// config kbqa.Build uses, so gold answers come from the generator's own
// world, never from the system under test.
type World struct {
	KB      *kbgen.KB
	bfq     []bfqSlot
	numeric []numericIntent
}

type bfqSlot struct {
	intent int
	subj   rdf.ID
	para   uint8
}

// numericIntent is one rankable (category, predicate) pair with its
// members sorted by value, the gold of every variant question over it.
type numericIntent struct {
	category string
	keyword  string
	ranked   []rankedEntity // descending value, ties by label
	asc      []rankedEntity // ascending value, ties by label
}

type rankedEntity struct {
	label string
	value float64
	// unique marks labels carried by exactly one entity, the only ones a
	// comparison question can name without ambiguity.
	unique bool
}

// rankKeywords are the words ranking, comparison and listing questions use
// for each numeric intent, keyed by category/path.
var rankKeywords = map[string]string{
	"city/population":     "population",
	"city/area":           "area",
	"country/population":  "population",
	"country/area":        "area",
	"person/height":       "height",
	"company/revenue":     "revenue",
	"river/length":        "length",
	"mountain/elevation":  "elevation",
	"university/students": "students",
	"food/calories":       "calories",
}

// NewWorld generates the knowledge base of a workload and indexes its
// question pools.
func NewWorld(scale int) *World {
	cfg := eval.DefaultWorldConfig(kbgen.Freebase)
	kb := kbgen.Generate(kbgen.Config{Seed: cfg.Seed, Flavor: cfg.Flavor, Scale: scale, Shards: cfg.Shards})
	return newWorldFrom(kb)
}

func newWorldFrom(kb *kbgen.KB) *World {
	w := &World{KB: kb}
	for i, it := range kb.Intents {
		for _, e := range kb.SubjectsWithPath(it) {
			for p := range it.Paraphrases {
				w.bfq = append(w.bfq, bfqSlot{intent: i, subj: e, para: uint8(p)})
			}
		}
	}
	keys := make([]string, 0, len(rankKeywords))
	for k := range rankKeywords {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cat, path, _ := strings.Cut(k, "/")
		if ni, ok := w.rankIntent(cat, path); ok {
			ni.keyword = rankKeywords[k]
			w.numeric = append(w.numeric, ni)
		}
	}
	return w
}

// rankIntent sorts a category's members by the numeric value of path,
// the same order the paper's ranking variant defines.
func (w *World) rankIntent(cat, pathKey string) (numericIntent, bool) {
	st := w.KB.Store
	path, ok := st.ParsePath(pathKey)
	if !ok {
		return numericIntent{}, false
	}
	ni := numericIntent{category: cat}
	for _, e := range w.KB.ByCategory[cat] {
		vals := st.PathObjects(e, path)
		if len(vals) == 0 {
			continue
		}
		v, ok := parseNumber(st.Label(vals[0]))
		if !ok {
			continue
		}
		label := st.Label(e)
		ni.ranked = append(ni.ranked, rankedEntity{
			label:  text.Normalize(label),
			value:  v,
			unique: len(st.EntitiesByLabel(label)) == 1,
		})
	}
	sort.Slice(ni.ranked, func(i, j int) bool {
		a, b := ni.ranked[i], ni.ranked[j]
		if a.value != b.value {
			return a.value > b.value
		}
		return a.label < b.label
	})
	ni.asc = append([]rankedEntity(nil), ni.ranked...)
	sort.Slice(ni.asc, func(i, j int) bool {
		a, b := ni.asc[i], ni.asc[j]
		if a.value != b.value {
			return a.value < b.value
		}
		return a.label < b.label
	})
	return ni, len(ni.ranked) >= 10
}

// PoolSize is the number of distinct trained-paraphrase BFQs.
func (w *World) PoolSize() int { return len(w.bfq) }

// render writes a paraphrase instantiation the way eval's benchmarks do:
// title-cased entity, capitalized first letter, question mark.
func render(pattern, label string) string {
	q := strings.Replace(pattern, "$e", text.TitleCase(text.Normalize(label)), 1)
	return strings.ToUpper(q[:1]) + q[1:] + "?"
}

// BFQ instantiates pool slot i.
func (w *World) BFQ(i int) *Question {
	s := w.bfq[i]
	it := w.KB.Intents[s.intent]
	st := w.KB.Store
	path, _ := st.ParsePath(it.PathKey)
	q := &Question{
		Text:     render(it.Paraphrases[s.para], st.Label(s.subj)),
		Shape:    ShapeBFQ,
		GoldPath: it.PathKey,
		Pool:     -1,
	}
	for _, v := range st.PathObjects(s.subj, path) {
		q.Gold = append(q.Gold, text.Normalize(st.Label(v)))
	}
	return q
}

// Rare returns n rare rephrasings of BFQs (eval's hard questions), which
// template matching is expected to refuse.
func (w *World) Rare(seed int64, n int) []*Question {
	b := eval.GenBenchmark(w.KB, eval.BenchSpec{Name: "rare", Total: n, BFQRatio: 1, HardRate: 1, Seed: seed})
	out := make([]*Question, len(b.Items))
	for i, it := range b.Items {
		out[i] = &Question{Text: it.Q, Shape: ShapeRare, GoldPath: it.GoldPath, Gold: it.GoldValues, Pool: -1}
	}
	return out
}

// Complex returns n two-hop questions with their composed gold answers.
func (w *World) Complex(seed int64, n int) []*Question {
	cps := corpus.ComposeComplex(w.KB, seed, n)
	out := make([]*Question, len(cps))
	for i, cp := range cps {
		out[i] = &Question{Text: cp.Q, Shape: ShapeComplex, Gold: cp.GoldAnswers, Pool: -1}
	}
	return out
}

// offKBForms are questions about nothing the knowledge base holds: a
// paraphrase over an invented name, or chit-chat without an entity.
var offKBForms = []string{
	"what is the population of %n",
	"who is the mayor of %n",
	"when was %n born",
	"how tall is %n",
	"what instrument does %n play",
	"why is the sky %w",
	"how do i clean a %w carpet",
	"what is the best %w recipe",
	"is it normal to dream about %w things",
	"where can i buy %w paint",
}

var offKBWords = []string{"blue", "green", "purple", "wooden", "tiny", "dusty", "shiny", "quiet"}

var syllables = []string{"zor", "qua", "vex", "plim", "dra", "ulk", "fen", "oth", "yrr", "bax"}

// OffKB draws one off-KB question; invented names are checked against the
// KB so none of them links.
func (w *World) OffKB(r *rand.Rand) *Question {
	form := offKBForms[r.Intn(len(offKBForms))]
	q := strings.Replace(form, "%w", offKBWords[r.Intn(len(offKBWords))], 1)
	if strings.Contains(q, "%n") {
		for {
			name := syllables[r.Intn(len(syllables))] + syllables[r.Intn(len(syllables))] + syllables[r.Intn(len(syllables))]
			if !w.KB.Store.HasLabel(name) {
				q = strings.Replace(q, "%n", name, 1)
				break
			}
		}
	}
	return &Question{Text: render(q, ""), Shape: ShapeOffKB, Pool: -1}
}

var (
	ordinalWords = []string{"", "1st", "2nd", "3rd", "4th", "5th", "6th", "7th", "8th", "9th", "10th"}
	ordinalNames = []string{"", "first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth", "tenth"}
	maxWords     = []string{"largest", "highest", "biggest", "greatest"}
	minWords     = []string{"smallest", "lowest"}
)

// Ranking draws a ranking question over numeric intent k and its gold
// entity.
func (w *World) Ranking(r *rand.Rand, k int) *Question {
	ni := &w.numeric[k%len(w.numeric)]
	rank := 1 + r.Intn(10)
	ord := ordinalWords[rank]
	if r.Intn(2) == 0 {
		ord = ordinalNames[rank]
	}
	sup, rows := maxWords[r.Intn(len(maxWords))], ni.ranked
	if r.Intn(3) == 0 {
		sup, rows = minWords[r.Intn(len(minWords))], ni.asc
	}
	row := rows[rank-1]
	var q string
	if rank == 1 && r.Intn(2) == 0 {
		q = fmt.Sprintf("which %s has the %s %s", ni.category, sup, ni.keyword)
	} else {
		q = fmt.Sprintf("which %s has the %s %s %s", ni.category, ord, sup, ni.keyword)
	}
	return &Question{Text: render(q, ""), Shape: ShapeRanking, Gold: []string{row.label}, Pool: -1}
}

// Comparison draws a comparison between two unambiguously named members
// of numeric intent k's category whose values differ.
func (w *World) Comparison(r *rand.Rand, k int) *Question {
	ni := &w.numeric[k%len(w.numeric)]
	for {
		a, b := ni.ranked[r.Intn(len(ni.ranked))], ni.ranked[r.Intn(len(ni.ranked))]
		if !a.unique || !b.unique || a.value == b.value || a.label == b.label {
			continue
		}
		win := a
		if b.value > a.value {
			win = b
		}
		q := fmt.Sprintf("which %s has more %s , %s or %s", ni.category, ni.keyword, text.TitleCase(a.label), text.TitleCase(b.label))
		return &Question{Text: render(q, ""), Shape: ShapeComparison, Gold: []string{win.label}, Pool: -1}
	}
}

var listForms = []string{"list %cs ordered by %k", "list all %cs by %k", "give me %cs sorted by %k"}

// Listing draws a listing question over numeric intent k; gold is the
// top ten by value.
func (w *World) Listing(r *rand.Rand, k int) *Question {
	ni := &w.numeric[k%len(w.numeric)]
	form := listForms[r.Intn(len(listForms))]
	q := strings.Replace(strings.Replace(form, "%c", ni.category, 1), "%k", ni.keyword, 1)
	gold := make([]string, 0, 10)
	for _, row := range ni.ranked[:10] {
		gold = append(gold, row.label)
	}
	return &Question{Text: render(q, ""), Shape: ShapeListing, Gold: gold, Pool: -1}
}

// parseNumber reads the knowledge base's numeric literal formats ("390k",
// "12m", "4300 sq km", "1.85 m", "42 billion", "250 kcal").
func parseNumber(label string) (float64, bool) {
	fields := strings.Fields(strings.ToLower(label))
	if len(fields) == 0 {
		return 0, false
	}
	head, mult := fields[0], 1.0
	if len(fields) > 1 {
		switch fields[1] {
		case "billion":
			mult = 1e9
		case "million":
			mult = 1e6
		case "thousand":
			mult = 1e3
		}
	}
	switch n := len(head); {
	case strings.HasSuffix(head, "k"):
		head, mult = head[:n-1], 1e3
	case strings.HasSuffix(head, "m") && n > 1 && head[n-2] >= '0' && head[n-2] <= '9':
		head, mult = head[:n-1], 1e6
	}
	v, err := strconv.ParseFloat(head, 64)
	if err != nil {
		return 0, false
	}
	return v * mult, true
}

// variantSample draws a few questions of each variant kind for the traced
// run's per-kind variant timings.
func variantSample(w *World, seed int64) []*Question {
	r := rand.New(rand.NewSource(seed + 3))
	var out []*Question
	for i := 0; i < 4; i++ {
		k := r.Intn(len(w.numeric))
		out = append(out, w.Ranking(r, k), w.Comparison(r, k), w.Listing(r, k))
	}
	return out
}
