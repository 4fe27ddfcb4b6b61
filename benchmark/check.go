package main

import (
	"repro/kbqa"
)

// Verdict is the checker's judgement of one reply.
type Verdict uint8

// Verdicts. Failed covers every reply that is neither an answer of the
// right shape nor a typed refusal; Wrong is an answer of the right shape
// that misses the gold (it lowers precision, it is not a failure).
const (
	Refused Verdict = iota
	Right
	Wrong
	Failed
)

var verdictNames = [...]string{"refused", "right", "wrong", "failed"}

func (v Verdict) String() string { return verdictNames[v] }

var variantKinds = map[Shape]string{
	ShapeRanking:    "ranking",
	ShapeComparison: "comparison",
	ShapeListing:    "listing",
}

// Check judges a reply against the question's gold, by eval's rule for
// BFQs (right when the committed predicate is the gold one or the value is
// a gold value), by value for complex questions, and by the exact entity
// order for variants. It allocates nothing, so it can run inside the
// measured loop.
func Check(q *Question, res *kbqa.Result, err error) Verdict {
	if err != nil {
		if kbqa.IsUnanswerable(err) {
			return Refused
		}
		return Failed
	}
	if res == nil || (res.Answer == nil) == (res.Variant == nil) {
		return Failed
	}
	if q.Shape.Variant() {
		v := res.Variant
		if v == nil || v.Kind != variantKinds[q.Shape] {
			return Failed
		}
		if len(v.Entities) != len(q.Gold) {
			return Wrong
		}
		for i, e := range v.Entities {
			if e != q.Gold[i] {
				return Wrong
			}
		}
		return Right
	}
	a := res.Answer
	if a == nil {
		return Failed // a factoid question routed to the variant engine
	}
	if q.GoldPath != "" && a.Predicate == q.GoldPath {
		return Right
	}
	for _, g := range q.Gold {
		if g == a.Value {
			return Right
		}
	}
	return Wrong
}

// sameAnswer reports whether two replies to one question agree; the
// hot-set workload reloads the same model, so every reply to a question
// must stay identical across reloads.
func sameAnswer(a, b *kbqa.Result) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if (a.Answer == nil) != (b.Answer == nil) || (a.Variant == nil) != (b.Variant == nil) {
		return false
	}
	if a.Answer != nil {
		return a.Answer.Value == b.Answer.Value && a.Answer.Predicate == b.Answer.Predicate
	}
	if len(a.Variant.Entities) != len(b.Variant.Entities) {
		return false
	}
	for i := range a.Variant.Entities {
		if a.Variant.Entities[i] != b.Variant.Entities[i] {
			return false
		}
	}
	return true
}
