package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/extract"
	"repro/internal/rdf"
	"repro/internal/text"
)

// This file implements the BFQ variants of Sec 1: ranking questions
// ("which city has the 3rd largest population?"), comparison questions
// ("which city has more people, Honolulu or New Jersey?") and listing
// questions ("list cities ordered by population"). The paper's claim is
// that answering BFQs suffices to answer these; the implementation bears
// that out — each variant reduces to the learned template→predicate
// mapping plus an aggregation over V(e, p).

// VariantKind classifies a recognized variant question.
type VariantKind uint8

// The supported variant kinds.
const (
	VariantNone VariantKind = iota
	VariantRanking
	VariantComparison
	VariantListing
)

func (k VariantKind) String() string {
	switch k {
	case VariantRanking:
		return "ranking"
	case VariantComparison:
		return "comparison"
	case VariantListing:
		return "listing"
	default:
		return "none"
	}
}

// VariantAnswer is the reply to a variant question.
type VariantAnswer struct {
	Kind VariantKind
	// Entities are the winning entities (one for ranking/comparison, the
	// ordered list for listing), by surface form.
	Entities []string
	// Values aligns with Entities: the predicate value that ranked them.
	Values []string
	// Path is the predicate the variant aggregated over.
	Path string
	// Category is the subject category ranked over.
	Category string
}

// ordinals maps ordinal words/numerals to ranks (1-based).
var ordinals = map[string]int{
	"first": 1, "1st": 1, "second": 2, "2nd": 2, "third": 3, "3rd": 3,
	"fourth": 4, "4th": 4, "fifth": 5, "5th": 5, "sixth": 6, "6th": 6,
	"seventh": 7, "7th": 7, "eighth": 8, "8th": 8, "ninth": 9, "9th": 9,
	"tenth": 10, "10th": 10,
}

// superlatives that select the maximum vs the minimum of a numeric
// predicate.
var superlativeMax = map[string]bool{
	"largest": true, "biggest": true, "highest": true, "longest": true,
	"tallest": true, "most": true, "greatest": true,
}
var superlativeMin = map[string]bool{
	"smallest": true, "lowest": true, "shortest": true, "least": true,
	"fewest": true, "youngest": true,
}

// AnswerVariant recognizes and answers ranking, comparison and listing
// questions. ok is false when the question is not a recognizable variant or
// the aggregation cannot be grounded.
func (e *Engine) AnswerVariant(question string) (VariantAnswer, bool) {
	toks := text.Tokenize(question)
	if len(toks) == 0 {
		return VariantAnswer{}, false
	}
	if ans, ok := e.tryComparison(toks); ok {
		return ans, true
	}
	if ans, ok := e.tryRanking(toks); ok {
		return ans, true
	}
	if ans, ok := e.tryListing(toks); ok {
		return ans, true
	}
	return VariantAnswer{}, false
}

// tryComparison handles "which city has more people , Honolulu or New
// Jersey" and "who is taller , A or B": two entity mentions joined by
// "or", with the comparative phrase resolving to a numeric predicate
// through the learned templates.
func (e *Engine) tryComparison(toks []string) (VariantAnswer, bool) {
	orIdx := -1
	for i, t := range toks {
		if t == "or" {
			orIdx = i
		}
	}
	if orIdx <= 0 {
		return VariantAnswer{}, false
	}
	mentions := extract.FindMentions(e.KB, toks)
	if len(mentions) < 2 {
		return VariantAnswer{}, false
	}
	// The compared pair straddles the "or".
	var left, right *extract.Mention
	for i := range mentions {
		m := &mentions[i]
		if m.Span.End <= orIdx {
			left = m
		} else if m.Span.Start > orIdx && right == nil {
			right = m
		}
	}
	if left == nil || right == nil {
		return VariantAnswer{}, false
	}
	// Resolve the predicate from the non-entity words.
	head := toks[:left.Span.Start]
	category := e.categoryOf(head)
	path, more := e.resolveComparativePredicate(head, category)
	if path == "" {
		return VariantAnswer{}, false
	}
	lv, lok := e.numericValue(left.Entities, path)
	rv, rok := e.numericValue(right.Entities, path)
	if !lok || !rok {
		return VariantAnswer{}, false
	}
	winner, val := left, lv
	if (rv > lv) == more {
		winner, val = right, rv
	}
	return VariantAnswer{
		Kind:     VariantComparison,
		Entities: []string{winner.Surface},
		Values:   []string{formatNumber(val)},
		Path:     path,
		Category: category,
	}, true
}

// tryRanking handles "which city has the 3rd largest population".
func (e *Engine) tryRanking(toks []string) (VariantAnswer, bool) {
	rank := 1
	dirMax := true
	hasSuper := false
	for _, t := range toks {
		if r, ok := ordinals[t]; ok {
			rank = r
		}
		if superlativeMax[t] {
			hasSuper = true
		}
		if superlativeMin[t] {
			hasSuper = true
			dirMax = false
		}
	}
	if !hasSuper {
		return VariantAnswer{}, false
	}
	category, path := e.resolveCategoryPredicate(toks)
	if category == "" || path == "" {
		return VariantAnswer{}, false
	}
	ranked := e.rankCategory(category, path, dirMax)
	if rank > len(ranked) {
		return VariantAnswer{}, false
	}
	row := ranked[rank-1]
	return VariantAnswer{
		Kind:     VariantRanking,
		Entities: []string{row.label},
		Values:   []string{formatNumber(row.value)},
		Path:     path,
		Category: category,
	}, true
}

// tryListing handles "list cities ordered by population" and "list all
// cities by area".
func (e *Engine) tryLeading(toks []string) bool {
	return toks[0] == "list" || toks[0] == "name" || (len(toks) > 1 && toks[0] == "give" && toks[1] == "me")
}

func (e *Engine) tryListing(toks []string) (VariantAnswer, bool) {
	if !e.tryLeading(toks) {
		return VariantAnswer{}, false
	}
	hasOrder := false
	for _, t := range toks {
		if t == "ordered" || t == "sorted" || t == "by" {
			hasOrder = true
		}
	}
	if !hasOrder {
		return VariantAnswer{}, false
	}
	category, path := e.resolveCategoryPredicate(toks)
	if category == "" || path == "" {
		return VariantAnswer{}, false
	}
	ranked := e.rankCategory(category, path, true)
	if len(ranked) == 0 {
		return VariantAnswer{}, false
	}
	const listCap = 10
	ans := VariantAnswer{Kind: VariantListing, Path: path, Category: category}
	for i, row := range ranked {
		if i == listCap {
			break
		}
		ans.Entities = append(ans.Entities, row.label)
		ans.Values = append(ans.Values, formatNumber(row.value))
	}
	return ans, true
}

// resolveComparativePredicate grounds a comparative phrase ("has more
// people", "is taller") in a predicate by scoring the phrase's content
// words against the learned templates and taking the best template's
// argmax predicate, preferring templates about category when it is
// non-empty. Returns the path and whether "more is better".
func (e *Engine) resolveComparativePredicate(head []string, category string) (string, bool) {
	// Comparative → canonical content word that appears in templates.
	canon := map[string]string{
		"more": "many", "taller": "tall", "larger": "large", "bigger": "big",
		"higher": "high", "longer": "long", "older": "old", "smaller": "large",
	}
	words := make([]string, 0, len(head))
	for _, t := range head {
		if c, ok := canon[t]; ok {
			t = c
		}
		words = append(words, t)
	}
	path, _ := e.bestTemplateFor(words, category)
	return path, true
}

// resolveCategoryPredicate finds the subject category word and the
// predicate of a ranking/listing question.
func (e *Engine) resolveCategoryPredicate(toks []string) (category, path string) {
	category = e.categoryOf(toks)
	if category == "" {
		return "", ""
	}
	path, _ = e.bestTemplateFor(toks, category)
	return category, path
}

// categoryOf returns the first token, singularized, that names a taxonomy
// concept, or "".
func (e *Engine) categoryOf(toks []string) string {
	for _, t := range toks {
		for _, cand := range singularForms(t) {
			if e.Taxonomy.HasConcept(cand) {
				return cand
			}
		}
	}
	return ""
}

// singularForms proposes singular candidates for a possibly-plural token:
// the token itself, minus a trailing "s", and "-ies" → "-y".
func singularForms(t string) []string {
	out := []string{t}
	if strings.HasSuffix(t, "ies") {
		out = append(out, strings.TrimSuffix(t, "ies")+"y")
	}
	if strings.HasSuffix(t, "s") {
		out = append(out, strings.TrimSuffix(t, "s"))
	}
	return out
}

// scanNumericPredicate is the fill of the numeric-predicate memo: it
// reports whether the predicate's values parse as numbers for at least one
// subject (spot check).
func (e *Engine) scanNumericPredicate(pathKey string) bool {
	path, ok := e.KB.ParsePath(pathKey)
	if !ok {
		return false
	}
	checked := 0
	for _, ent := range e.KB.Entities() {
		for _, v := range e.KB.PathObjects(ent, path) {
			if _, ok := parseNumber(e.KB.Label(v)); ok {
				return true
			}
			checked++
			if checked > 50 {
				return false
			}
		}
		if checked > 50 {
			break
		}
	}
	return false
}

type rankedEntity struct {
	label string
	value float64
}

// scanRankCategory is rankCategory's fill: it sorts the entities of a
// category by the numeric value of the predicate.
func (e *Engine) scanRankCategory(category, pathKey string, desc bool) []rankedEntity {
	path, ok := e.KB.ParsePath(pathKey)
	if !ok {
		return nil
	}
	catPred, ok := e.KB.PredID("category")
	if !ok {
		return nil
	}
	var catLit rdf.ID = -1
	for _, n := range e.KB.NodesByLabel(category) {
		if e.KB.KindOf(n) == rdf.KindLiteral {
			catLit = n
			break
		}
	}
	if catLit < 0 {
		return nil
	}
	var out []rankedEntity
	for _, ent := range e.KB.Subjects(catPred, catLit) {
		vals := e.KB.PathObjects(ent, path)
		if len(vals) == 0 {
			continue
		}
		if n, ok := parseNumber(e.KB.Label(vals[0])); ok {
			out = append(out, rankedEntity{label: text.Normalize(e.KB.Label(ent)), value: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			if desc {
				return out[i].value > out[j].value
			}
			return out[i].value < out[j].value
		}
		return out[i].label < out[j].label
	})
	return out
}

// numericValue resolves the numeric predicate value of the first candidate
// entity that has one.
func (e *Engine) numericValue(ents []rdf.ID, pathKey string) (float64, bool) {
	path, ok := e.KB.ParsePath(pathKey)
	if !ok {
		return 0, false
	}
	for _, ent := range ents {
		for _, v := range e.KB.PathObjects(ent, path) {
			if n, ok := parseNumber(e.KB.Label(v)); ok {
				return n, true
			}
		}
	}
	return 0, false
}

// parseNumber parses the knowledge base's literal formats: "390k", "12m",
// "4300 sq km", "1.85 m", "42 billion", "1923", "250 kcal".
func parseNumber(label string) (float64, bool) {
	fields := strings.Fields(strings.ToLower(label))
	if len(fields) == 0 {
		return 0, false
	}
	head := fields[0]
	mult := 1.0
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
	switch {
	case strings.HasSuffix(head, "k"):
		head, mult = head[:len(head)-1], 1e3
	case strings.HasSuffix(head, "m") && len(head) > 1 && head[len(head)-2] >= '0' && head[len(head)-2] <= '9':
		// "12m" (millions) — but "1.85 m" (meters) has the unit as its own
		// field and is handled by the plain parse below.
		head, mult = head[:len(head)-1], 1e6
	}
	n, err := strconv.ParseFloat(head, 64)
	if err != nil {
		return 0, false
	}
	return n * mult, true
}

// formatNumber renders a ranked value compactly.
func formatNumber(v float64) string {
	switch {
	case v >= 1e9 && v == float64(int64(v/1e9))*1e9:
		return fmt.Sprintf("%.0fb", v/1e9)
	case v >= 1e6 && v == float64(int64(v/1e6))*1e6:
		return fmt.Sprintf("%.0fm", v/1e6)
	case v >= 1e3 && v == float64(int64(v/1e3))*1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
