package core

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/learn"
	"repro/internal/template"
	"repro/internal/text"
)

// The variant engine answers every ranking, comparison and listing
// question from the same few facts: which learned template a phrase
// matches best, whether that template's predicate is numeric, and the
// category's members sorted by the predicate's value. None of them depends
// on the question beyond its category and predicate, so the engine derives
// them once: the template index when the engine is built, and the
// numeric-predicate flags and ranked columns the first time a question
// asks for them. A columnar replica of the one analytical query shape KBQA
// has, filled lazily so building the engine costs no knowledge-base scan.

// variantIndex is the engine's precomputed view of the learned templates
// for the variant path, plus its two lazy knowledge-base memos.
type variantIndex struct {
	// entries holds one entry per template with at least one content
	// token, in sorted template order.
	entries []templateEntry
	// postings maps a content token to the entries containing it, once
	// per occurrence, so an entry's overlap with a question is the number
	// of times it appears in the postings of the question's content words.
	postings map[string][]int32

	// numeric holds one flag per distinct argmax path of the entries:
	// flagUnknown until the first question asks, then the spot check's
	// verdict. The map itself is read-only after construction.
	numeric map[string]*atomic.Uint32

	// columns memoizes rankCategory per (category, path, direction) for
	// taxonomy concepts and indexed paths only.
	mu      sync.Mutex
	columns map[columnKey][]rankedEntity
}

// templateEntry is one template's share of the variant knowledge.
type templateEntry struct {
	// total is the number of content tokens (no slot, no stopwords,
	// repeats counted).
	total int
	// concept is the slot concept, "" for a template without a slot.
	concept string
	// path and conf are the template's argmax predicate and P(p|t).
	path string
	conf float64
}

// columnKey identifies one ranked column.
type columnKey struct {
	category, path string
	desc           bool
}

// States of a numeric-predicate flag.
const (
	flagUnknown uint32 = iota
	flagNotNumeric
	flagNumeric
)

// newVariantIndex indexes the model's templates. It reads only the model;
// the knowledge base is scanned later, on demand.
func newVariantIndex(model *learn.Model) *variantIndex {
	ix := &variantIndex{
		postings: make(map[string][]int32),
		numeric:  make(map[string]*atomic.Uint32),
		columns:  make(map[columnKey][]rankedEntity),
	}
	if model == nil {
		return ix
	}
	tpls := make([]string, 0, len(model.Theta))
	for tpl := range model.Theta {
		tpls = append(tpls, tpl)
	}
	sort.Strings(tpls)
	for _, tpl := range tpls {
		id := int32(len(ix.entries))
		ent := templateEntry{concept: template.ConceptOf(tpl)}
		for _, tok := range strings.Fields(tpl) {
			if strings.HasPrefix(tok, "$") || text.IsStopword(tok) {
				continue
			}
			ent.total++
			ix.postings[tok] = append(ix.postings[tok], id)
		}
		if ent.total == 0 {
			continue
		}
		// Argmax of P(p|t), ties to the lexicographically smaller path.
		for p, v := range model.Theta[tpl] {
			if v > ent.conf || (v == ent.conf && p < ent.path) {
				ent.path, ent.conf = p, v
			}
		}
		if ix.numeric[ent.path] == nil {
			ix.numeric[ent.path] = new(atomic.Uint32)
		}
		ix.entries = append(ix.entries, ent)
	}
	return ix
}

// index returns the engine's variant index. Engines built as struct
// literals instead of by NewEngine get a fresh index per call, whose memos
// last only for that call.
func (e *Engine) index() *variantIndex {
	if e.variants != nil {
		return e.variants
	}
	return newVariantIndex(e.Model)
}

// bestTemplateFor scores the learned templates against the question's
// content words by token overlap and returns the argmax predicate of the
// best-matching template. This is how variants reuse the knowledge the EM
// phase learned instead of a hand-written keyword table.
//
// Among the templates with a numeric predicate, the best is the one with
// the highest overlap score, then the model's own confidence P(p|t), then
// (when category is non-empty) one whose slot is that concept, then the
// smaller path. The order is total, so the winner does not depend on the
// order the templates are visited in. The category step keeps "which
// person has the tallest height" on a "$person" template: an EM-misread
// "what is $actor 's height" (→ dob) ties with it on overlap and
// confidence and would otherwise win on the path.
func (e *Engine) bestTemplateFor(words []string, category string) (string, float64) {
	ix := e.index()
	var buf [64]int32
	hits := buf[:0]
	for i, w := range words {
		if text.IsStopword(w) || strings.HasPrefix(w, "$") || slices.Contains(words[:i], w) {
			continue
		}
		hits = append(hits, ix.postings[w]...)
	}
	// Sorted, each entry's hits form one run whose length is its overlap.
	slices.Sort(hits)
	var best *templateEntry
	bestScore, bestInCat := 0.0, false
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j] == hits[i] {
			j++
		}
		overlap := j - i
		ent := &ix.entries[hits[i]]
		i = j
		score := float64(overlap) * float64(overlap) / float64(ent.total)
		inCat := category != "" && ent.concept == category
		if best != nil && !outranks(score, inCat, ent, bestScore, bestInCat, best) {
			continue
		}
		// Only numeric predicates can be ranked.
		if !ix.numericPredicate(e, ent.path) {
			continue
		}
		best, bestScore, bestInCat = ent, score, inCat
	}
	if best == nil {
		return "", 0
	}
	return best.path, bestScore
}

// outranks reports whether candidate ent beats the current best in
// bestTemplateFor's order.
func outranks(score float64, inCat bool, ent *templateEntry, bestScore float64, bestInCat bool, best *templateEntry) bool {
	switch {
	case score != bestScore:
		return score > bestScore
	case ent.conf != best.conf:
		return ent.conf > best.conf
	case inCat != bestInCat:
		return inCat
	default:
		return ent.path < best.path
	}
}

// numericPredicate reports whether the predicate's values parse as numbers
// in e's knowledge base for at least one subject. The verdict for an
// indexed path is memoized the first time it is asked; other paths are
// spot-checked on every call.
func (ix *variantIndex) numericPredicate(e *Engine, pathKey string) bool {
	flag := ix.numeric[pathKey]
	if flag == nil {
		return e.scanNumericPredicate(pathKey)
	}
	switch flag.Load() {
	case flagNumeric:
		return true
	case flagNotNumeric:
		return false
	}
	numeric := e.scanNumericPredicate(pathKey)
	if !e.readFailed() {
		if numeric {
			flag.Store(flagNumeric)
		} else {
			flag.Store(flagNotNumeric)
		}
	}
	return numeric
}

// rankCategory returns the entities of a category sorted by the numeric
// value of the predicate. The column for a taxonomy concept and an indexed
// path is memoized the first time it is asked; callers must not modify it.
func (e *Engine) rankCategory(category, pathKey string, desc bool) []rankedEntity {
	ix := e.index()
	key := columnKey{category: category, path: pathKey, desc: desc}
	ix.mu.Lock()
	col, ok := ix.columns[key]
	ix.mu.Unlock()
	if ok {
		return col
	}
	col = e.scanRankCategory(category, pathKey, desc)
	if ix.numeric[pathKey] != nil && e.Taxonomy.HasConcept(category) && !e.readFailed() {
		ix.mu.Lock()
		ix.columns[key] = col
		ix.mu.Unlock()
	}
	return col
}

// readFailed reports whether the knowledge base recorded a read failure.
// A remote knowledge base (shardrpc.KB) cannot fail its ctx-less reads, so
// it answers them empty and records the error instead; a memo filled
// during an outage would keep the empty answer until the next model load,
// so fills are stored only when no failure is on record.
func (e *Engine) readFailed() bool {
	kb, ok := e.KB.(interface{ Err() error })
	return ok && kb.Err() != nil
}
