// Package core implements KBQA's online procedure (Sec 3): probabilistic
// inference of the answer value for a question,
//
//	argmax_v Σ_{e,t,p} P(v|e,p) · P(p|t) · P(t|e,q) · P(e|q)   (Eq 7)
//
// and the divide-and-conquer pipeline for complex questions (Sec 5):
// decompose into a BFQ sequence, answer each BFQ, binding every answer into
// the next question's entity variable.
//
// The context-aware entry points (AnswerCtx, AnswerTopK) check cancellation
// between knowledge-base probes and between chain hops, so a deadline stops
// work mid-inference on large stores instead of letting an abandoned
// request run to completion; failures are the typed errors ErrNoEntity,
// ErrNoTemplate and ErrNoAnswer so callers can tell the failure stages
// apart.
package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/concept"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/template"
	"repro/internal/text"
)

// Typed failures of the online procedure, ordered by how far the pipeline
// got before giving up. Context errors (context.Canceled,
// context.DeadlineExceeded) pass through unwrapped.
var (
	// ErrNoEntity: no token span of the question matched an entity label,
	// so Eq (7)'s summation support is empty before any inference runs.
	ErrNoEntity = errors.New("kbqa: no entity mention recognized in the question")
	// ErrNoTemplate: entity mentions were found but no derived template
	// carries learned P(p|t) mass — the question shape was never observed
	// in the training corpus.
	ErrNoTemplate = errors.New("kbqa: no learned template matches the question")
	// ErrNoAnswer: interpretations existed but knowledge-base probing (or
	// complex-question decomposition) produced no value — the "null" reply
	// counted by the paper's #pro metric.
	ErrNoAnswer = errors.New("kbqa: no answer")
)

// Unanswerable reports whether err is one of the engine's typed no-answer
// errors, as opposed to a context or infrastructure failure. Fallback
// chains retry the next system only on unanswerable errors.
func Unanswerable(err error) bool {
	return errors.Is(err, ErrNoEntity) || errors.Is(err, ErrNoTemplate) || errors.Is(err, ErrNoAnswer)
}

// Step records one executed hop of a complex question.
type Step struct {
	// Question is the concrete bound BFQ whose answer won this step.
	Question string
	// Questions lists every bound BFQ actually executed for this step:
	// execution fans out over all values of the previous step, so a step
	// may have probed several bindings before one answered best.
	Questions []string
	Template  string
	Path      string
	Value     string
}

// Answer is the engine's response to a question.
type Answer struct {
	// Value is the argmax answer value (normalized surface form).
	Value string
	// Values is the full value set of the winning (entity, predicate)
	// pair, for set-valued answers such as band members.
	Values []string
	// Score is the accumulated probability mass of Value (unnormalized).
	Score float64
	// Entity, Template, Path identify the winning interpretation.
	Entity   rdf.ID
	Template string
	Path     string
	// Steps is non-empty when the question was answered by decomposition.
	Steps []Step
}

// Complex reports whether the answer came from a decomposed question.
func (a Answer) Complex() bool { return len(a.Steps) > 1 }

// Ranked is one scored candidate interpretation of a question: an
// (entity, template, predicate) triple with its joint Eq (7) weight
// P(e|q)·P(t|e,q)·P(p|t) and the values it would answer with. AnswerTopK
// surfaces the strongest K instead of discarding all but the argmax.
type Ranked struct {
	Entity      rdf.ID
	EntityLabel string
	Template    string
	Path        string
	// Score is the interpretation's joint weight. The slice AnswerTopK
	// returns is sorted by descending Score with deterministic tie-breaks.
	Score float64
	// Values are the normalized labels of V(e, p), sorted.
	Values []string
}

// Engine is the online QA engine. All fields except Decomposer are
// required.
type Engine struct {
	KB       rdf.Graph
	Taxonomy *concept.Taxonomy
	Model    *learn.Model
	// Decomposer, when set, enables complex-question answering.
	Decomposer *decompose.Decomposer
	// MaxChainValues caps how many values of an intermediate step are
	// expanded during complex-question execution (default 8).
	MaxChainValues int

	// variants is the variant engine's template index and its lazy
	// knowledge-base memos, built once at construction (the model is
	// immutable while serving) so ranking, comparison and listing
	// questions do not re-derive it per question.
	variants *variantIndex
}

// NewEngine builds an engine. A non-nil stats enables complex-question
// decomposition; per question, Answer wires a δ oracle that rejects spans
// without a fully-contained entity mention before paying for full
// interpretation, which keeps the DP's δ evaluations cheap.
func NewEngine(kb rdf.Graph, tax *concept.Taxonomy, model *learn.Model, stats *decompose.Stats) *Engine {
	e := &Engine{KB: kb, Taxonomy: tax, Model: model}
	e.variants = newVariantIndex(model)
	if stats != nil {
		//kbqa:nolint ctxpropagate — construction-time warmup, not a request path
		e.Decomposer = e.decomposerFor(context.Background(), nil)
		e.Decomposer.Stats = stats
	}
	return e
}

// decomposerFor builds a decomposer whose primitive oracle uses the given
// precomputed mentions (of the question about to be decomposed) as a fast
// rejection filter. Engines are safe for concurrent Answer calls because
// each call gets its own oracle closure. The oracle observes ctx so a
// deadline also aborts the decomposition DP, not just the probe loops.
func (e *Engine) decomposerFor(ctx context.Context, mentions []extract.Mention) *decompose.Decomposer {
	d := &decompose.Decomposer{MaxQuestionTokens: maxDecomposeTokens}
	if e.Decomposer != nil {
		d.Stats = e.Decomposer.Stats
	}
	d.Primitive = func(toks []string, sp text.Span) bool {
		if ctx.Err() != nil {
			return false
		}
		ms := mentions
		if ms == nil {
			ms = extract.FindMentions(e.KB, toks)
		}
		for _, m := range ms {
			if sp.Contains(m.Span) {
				return e.primitive(ctx, toks[sp.Start:sp.End])
			}
		}
		return false
	}
	return d
}

// maxDecomposeTokens bounds the decomposition DP input; the paper notes
// over 99% of corpus questions have |q| < 23 (Sec 5.3).
const maxDecomposeTokens = 23

// Timings splits an answer call across the online pipeline's stages for the
// serving layer's latency histograms. Attribution is coarse by design so the
// hot path stays cheap: Parse covers tokenization and entity-mention lookup,
// Match covers template derivation and the decomposition DP, Probe covers
// the per-interpretation model lookups and knowledge-base V(e,p+) probing.
type Timings struct {
	Parse time.Duration
	Match time.Duration
	Probe time.Duration
	Total time.Duration
}

// stampIf returns a start time only when stage timing is requested; the
// untimed path pays no clock reads.
func stampIf(tm *Timings) time.Time {
	if tm == nil {
		return time.Time{}
	}
	return time.Now()
}

// lapParse, lapMatch and lapProbe accumulate elapsed time into their stage;
// all are no-ops on a nil receiver (the untimed path).
func (tm *Timings) lapParse(start time.Time) {
	if tm != nil {
		tm.Parse += time.Since(start)
	}
}

func (tm *Timings) lapMatch(start time.Time) {
	if tm != nil {
		tm.Match += time.Since(start)
	}
}

func (tm *Timings) lapProbe(start time.Time) {
	if tm != nil {
		tm.Probe += time.Since(start)
	}
}

// Answer answers a question. Primitive BFQs take the O(|P|) inference path
// directly; only questions the direct path cannot answer pay for the
// O(|q|^4) decomposition DP (Sec 5). ok is false when KBQA has no answer
// (the "null" reply counted by the #pro metric).
//
// Answer cannot be cancelled and collapses the failure stages into one
// bool; prefer AnswerCtx or AnswerTopK for serving traffic.
func (e *Engine) Answer(question string) (Answer, bool) {
	//kbqa:nolint ctxpropagate — documented ctx-less shim; serving uses AnswerCtx
	ans, _, err := e.answer(context.Background(), question, nil, 0)
	return ans, err == nil
}

// AnswerCtx is Answer with cancellation and typed failures: the error is
// ErrNoEntity, ErrNoTemplate or ErrNoAnswer for unanswerable questions
// (see Unanswerable), or ctx.Err() when the context expires — cancellation
// is checked between knowledge-base probes and between chain hops, so a
// deadline aborts the scan instead of letting it run to completion.
func (e *Engine) AnswerCtx(ctx context.Context, question string) (Answer, error) {
	ans, _, err := e.answer(ctx, question, nil, 0)
	return ans, err
}

// AnswerTopK is AnswerCtx surfacing the top-k ranked interpretations —
// the scored (entity, template, predicate) triples of Eq (7)'s summation
// that the argmax otherwise discards — alongside the answer. For a complex
// question the ranking covers the final hop's winning BFQ. k <= 0 returns
// no interpretations.
func (e *Engine) AnswerTopK(ctx context.Context, question string, k int) (Answer, []Ranked, error) {
	return e.answer(ctx, question, nil, k)
}

// AnswerTimed is Answer with per-stage latency attribution, the engine's
// hook for the serving runtime's metrics pipeline.
func (e *Engine) AnswerTimed(question string) (Answer, Timings, bool) {
	//kbqa:nolint ctxpropagate — documented ctx-less shim; serving uses AnswerTopKTimed
	ans, _, tm, err := e.AnswerTopKTimed(context.Background(), question, 0)
	return ans, tm, err == nil
}

// AnswerTopKTimed combines AnswerTopK with per-stage latency attribution.
func (e *Engine) AnswerTopKTimed(ctx context.Context, question string, k int) (Answer, []Ranked, Timings, error) {
	var tm Timings
	start := time.Now()
	ans, ranked, err := e.answer(ctx, question, &tm, k)
	tm.Total = time.Since(start)
	return ans, ranked, tm, err
}

// answer is the shared implementation: tokenize and locate entity mentions
// exactly once (the direct BFQ attempt and the decomposition fallback share
// both), try the direct Eq (7) path, then fall back to decomposition.
//
// When the context carries a trace, the call runs under an "engine.answer"
// span whose parse/match/probe stage children mirror the Timings laps
// exactly — a captured trace's stage durations equal the Result's reported
// Timings because both read the same accumulator.
func (e *Engine) answer(ctx context.Context, question string, tm *Timings, k int) (Answer, []Ranked, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "engine.answer")
	if sp != nil {
		sp.SetAttr("question", question)
		if tm == nil {
			tm = new(Timings)
		}
		defer func() {
			sp.Stage("parse", tm.Parse)
			sp.Stage("match", tm.Match)
			sp.Stage("probe", tm.Probe)
			sp.End()
		}()
	}
	parseStart := stampIf(tm)
	qToks := text.Tokenize(question)
	mentions := extract.FindMentions(e.KB, qToks)
	tm.lapParse(parseStart)
	hadMention := len(mentions) > 0

	cands, sawMass, err := e.interpretationsFrom(ctx, qToks, mentions, tm)
	if err != nil {
		return Answer{}, nil, err
	}
	if ans, ok := e.aggregate(cands); ok {
		return ans, e.rankTopK(cands, k), nil
	}

	// The direct path failed; classify how far it got for the typed error
	// should decomposition not rescue the question.
	fail := func() error {
		if !hadMention {
			return ErrNoEntity
		}
		if !sawMass {
			return ErrNoTemplate
		}
		return ErrNoAnswer
	}

	if e.Decomposer == nil {
		return Answer{}, nil, fail()
	}
	dToks := qToks
	if len(dToks) > maxDecomposeTokens {
		// The DP is bounded to the truncated window, so the mention set
		// handed to its oracle must cover exactly the same tokens.
		dToks = dToks[:maxDecomposeTokens]
		parseStart = stampIf(tm)
		mentions = extract.FindMentions(e.KB, dToks)
		tm.lapParse(parseStart)
	}
	if len(mentions) == 0 {
		return Answer{}, nil, fail()
	}
	d := e.decomposerFor(ctx, mentions)
	matchStart := stampIf(tm)
	dec, ok := d.DecomposeTokens(dToks)
	tm.lapMatch(matchStart)
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	if ok && dec.IsComplex() {
		ans, ranked, answered, err := e.executeChain(ctx, dec, tm, k)
		if err != nil {
			return Answer{}, nil, err
		}
		if answered {
			return ans, ranked, nil
		}
	}
	return Answer{}, nil, fail()
}

// AnswerBFQ runs Eq (7) on a binary factoid question.
func (e *Engine) AnswerBFQ(question string) (Answer, bool) {
	//kbqa:nolint ctxpropagate — documented ctx-less shim over answerBFQ
	ans, _, err := e.answerBFQ(context.Background(), question, nil)
	return ans, err == nil
}

// answerBFQ runs the direct inference path, returning the candidate
// interpretations alongside the answer so chain execution can rank the
// winning hop without re-probing.
func (e *Engine) answerBFQ(ctx context.Context, question string, tm *Timings) (Answer, []interpretation, error) {
	ctx, sp := obs.StartSpan(ctx, "engine.bfq")
	if sp != nil {
		sp.SetAttr("question", question)
		defer sp.End()
	}
	parseStart := stampIf(tm)
	qToks := text.Tokenize(question)
	mentions := extract.FindMentions(e.KB, qToks)
	tm.lapParse(parseStart)
	cands, sawMass, err := e.interpretationsFrom(ctx, qToks, mentions, tm)
	if err != nil {
		return Answer{}, nil, err
	}
	ans, ok := e.aggregate(cands)
	if !ok {
		switch {
		case len(mentions) == 0:
			return Answer{}, nil, ErrNoEntity
		case !sawMass:
			return Answer{}, nil, ErrNoTemplate
		default:
			return Answer{}, nil, ErrNoAnswer
		}
	}
	return ans, cands, nil
}

// aggregate accumulates P(v|q) over interpretations and picks the argmax
// value, remembering the strongest interpretation per value for the trace.
func (e *Engine) aggregate(cands []interpretation) (Answer, bool) {
	if len(cands) == 0 {
		return Answer{}, false
	}

	type acc struct {
		score float64
		best  interpretation
		bestW float64
	}
	byValue := make(map[string]*acc)
	for _, c := range cands {
		perValue := c.weight / float64(len(c.values))
		for _, v := range c.values {
			label := text.Normalize(e.KB.Label(v))
			a := byValue[label]
			if a == nil {
				a = &acc{}
				byValue[label] = a
			}
			a.score += perValue
			// Deterministic winner among equal-weight interpretations:
			// the model's P(p|t) map iterates in random order, so a plain
			// first-seen maximum would make the reported (template, path)
			// flap between runs and between store layouts.
			if perValue > a.bestW || (perValue == a.bestW && a.bestW > 0 &&
				(c.path < a.best.path || (c.path == a.best.path && c.template < a.best.template))) {
				a.bestW = perValue
				a.best = c
			}
		}
	}

	var bestLabel string
	var best *acc
	for label, a := range byValue {
		if best == nil || a.score > best.score || (a.score == best.score && label < bestLabel) {
			bestLabel, best = label, a
		}
	}

	values := make([]string, 0, len(best.best.values))
	for _, v := range best.best.values {
		values = append(values, text.Normalize(e.KB.Label(v)))
	}
	sort.Strings(values)

	return Answer{
		Value:    bestLabel,
		Values:   values,
		Score:    best.score,
		Entity:   best.best.entity,
		Template: best.best.template,
		Path:     best.best.path,
	}, true
}

// rankTopK merges the candidate interpretations by (entity, template,
// path) — summing the Eq (7) mass of duplicates surfaced through distinct
// mentions — and returns the strongest k, sorted by descending score with
// deterministic tie-breaks.
func (e *Engine) rankTopK(cands []interpretation, k int) []Ranked {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	type tkey struct {
		ent       rdf.ID
		tpl, path string
	}
	type merged struct {
		score float64
		cand  int // first candidate with this key; duplicates share V(e,p)
	}
	byKey := make(map[tkey]*merged, len(cands))
	order := make([]tkey, 0, len(cands))
	for i, c := range cands {
		kk := tkey{c.entity, c.template, c.path}
		if m := byKey[kk]; m != nil {
			m.score += c.weight
			continue
		}
		byKey[kk] = &merged{score: c.weight, cand: i}
		order = append(order, kk)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := byKey[order[i]], byKey[order[j]]
		if a.score != b.score {
			return a.score > b.score
		}
		if order[i].path != order[j].path {
			return order[i].path < order[j].path
		}
		if order[i].tpl != order[j].tpl {
			return order[i].tpl < order[j].tpl
		}
		return order[i].ent < order[j].ent
	})
	if len(order) > k {
		order = order[:k]
	}
	// Label resolution and per-value normalization are deferred to the k
	// winners; losers cost only their score accumulation above.
	out := make([]Ranked, len(order))
	for i, kk := range order {
		m := byKey[kk]
		c := cands[m.cand]
		values := make([]string, 0, len(c.values))
		for _, v := range c.values {
			values = append(values, text.Normalize(e.KB.Label(v)))
		}
		sort.Strings(values)
		out[i] = Ranked{
			Entity:      kk.ent,
			EntityLabel: text.Normalize(e.KB.Label(kk.ent)),
			Template:    kk.tpl,
			Path:        kk.path,
			Score:       m.score,
			Values:      values,
		}
	}
	return out
}

// interpretation is one (e, t, p) triple with its joint weight
// P(e|q)·P(t|e,q)·P(p|t) and the value set V(e, p).
type interpretation struct {
	entity   rdf.ID
	template string
	path     string
	weight   float64
	values   []rdf.ID
}

// interpretations enumerates Eq (7)'s summation support: entities from the
// question's mentions, templates from conceptualization, predicates from
// the learned model. tm, when non-nil, accumulates stage latencies.
func (e *Engine) interpretations(ctx context.Context, qToks []string, tm *Timings) []interpretation {
	parseStart := stampIf(tm)
	mentions := extract.FindMentions(e.KB, qToks)
	tm.lapParse(parseStart)
	cands, _, err := e.interpretationsFrom(ctx, qToks, mentions, tm)
	if err != nil {
		return nil
	}
	return cands
}

// interpretationsFrom is interpretations with the mention lookup hoisted
// out, for callers that already hold the mentions of qToks. sawMass
// reports whether any derived template carried learned P(p|t) mass (the
// ErrNoTemplate / ErrNoAnswer discriminator); err is non-nil only when ctx
// expires — checked before every knowledge-base probe, so cancellation
// aborts the scan mid-flight.
func (e *Engine) interpretationsFrom(ctx context.Context, qToks []string, mentions []extract.Mention, tm *Timings) (out []interpretation, sawMass bool, err error) {
	if len(mentions) == 0 {
		return nil, false, nil
	}
	// A context-aware prober (a network-backed store) gets the caller's
	// ctx per probe, so its deadlines and trace spans flow across the RPC
	// boundary; its error is infrastructure failure (all replicas down,
	// deadline exceeded) and aborts the answer rather than shrinking it.
	remote, _ := e.KB.(ctxProber)
	// P(e|q): uniform over all candidate entities across mentions.
	var totalEntities int
	for _, m := range mentions {
		totalEntities += len(m.Entities)
	}
	pe := 1.0 / float64(totalEntities)

	for _, m := range mentions {
		matchStart := stampIf(tm)
		tmpls := template.DeriveAll(e.Taxonomy, qToks, m.Span, m.Surface)
		tm.lapMatch(matchStart)
		_, psp := obs.StartSpan(ctx, "engine.probe")
		before := len(out)
		if psp != nil {
			psp.SetAttr("mention", m.Surface)
			psp.SetInt("entities", int64(len(m.Entities)))
			psp.SetInt("templates", int64(len(tmpls)))
			e.annotateShards(psp, m.Entities)
		}
		probeStart := stampIf(tm)
		for _, ent := range m.Entities {
			for _, tw := range tmpls {
				dist := e.Model.PredDist(tw.Text)
				if len(dist) == 0 {
					continue
				}
				sawMass = true
				// Iterate the distribution in sorted-key order: cands
				// order feeds float accumulation in aggregate, and map
				// order would make near-tied answers flap across runs.
				pathKeys := make([]string, 0, len(dist))
				for pathKey := range dist {
					pathKeys = append(pathKeys, pathKey)
				}
				sort.Strings(pathKeys)
				for _, pathKey := range pathKeys {
					if err := ctx.Err(); err != nil {
						tm.lapProbe(probeStart)
						psp.End()
						return nil, sawMass, err
					}
					ppt := dist[pathKey]
					if ppt <= 0 {
						continue
					}
					path, ok := e.KB.ParsePath(pathKey)
					if !ok {
						continue
					}
					var values []rdf.ID
					if remote != nil {
						values, err = remote.PathObjectsCtx(ctx, ent, path)
						if err != nil {
							tm.lapProbe(probeStart)
							psp.End()
							return nil, sawMass, err
						}
					} else {
						values = e.KB.PathObjects(ent, path)
					}
					if len(values) == 0 {
						continue
					}
					out = append(out, interpretation{
						entity:   ent,
						template: tw.Text,
						path:     pathKey,
						weight:   pe * tw.P * ppt,
						values:   values,
					})
				}
			}
		}
		tm.lapProbe(probeStart)
		if psp != nil {
			psp.SetInt("candidates", int64(len(out)-before))
			psp.End()
		}
	}
	return out, sawMass, nil
}

// ctxProber is the optional Graph extension a remote-backed store
// implements: PathObjects under the caller's context, with failure
// surfaced as an error instead of a silent empty set.
type ctxProber interface {
	PathObjectsCtx(ctx context.Context, subj rdf.ID, path rdf.Path) ([]rdf.ID, error)
}

// annotateShards attributes a probe span to the knowledge-base shards that
// own the candidate entities, when the store is sharded. Each distinct
// shard becomes a "probe.shard" child span so a trace shows exactly which
// partitions one mention's probes touched.
func (e *Engine) annotateShards(psp *obs.Span, entities []rdf.ID) {
	sharded, ok := e.KB.(interface{ ShardOf(rdf.ID) int })
	if !ok {
		return
	}
	perShard := map[int]int64{}
	order := make([]int, 0, 4)
	for _, ent := range entities {
		s := sharded.ShardOf(ent)
		if _, seen := perShard[s]; !seen {
			order = append(order, s)
		}
		perShard[s]++
	}
	sort.Ints(order)
	for _, s := range order {
		c := psp.Child("probe.shard")
		c.SetInt("shard", int64(s))
		c.SetInt("entities", perShard[s])
		c.End()
	}
}

// primitive is the δ oracle of Algorithm 2: a token span is a primitive BFQ
// iff the engine can actually answer it.
func (e *Engine) primitive(ctx context.Context, toks []string) bool {
	return len(e.interpretations(ctx, toks, nil)) > 0
}

// executeChain runs a decomposition sequence: answer the innermost BFQ,
// then repeatedly bind the answer(s) into the next pattern (Sec 5.1).
// Cancellation is checked between hops and between bindings, so a deadline
// stops a multi-hop question instead of fanning out more work; answered is
// false when some hop has no answer (err stays nil), and err is non-nil
// only for context expiry.
func (e *Engine) executeChain(ctx context.Context, dec decompose.Decomposition, tm *Timings, k int) (_ Answer, _ []Ranked, answered bool, err error) {
	maxVals := e.MaxChainValues
	if maxVals <= 0 {
		maxVals = 8
	}
	hctx, hsp := obs.StartSpan(ctx, "engine.hop")
	if hsp != nil {
		hsp.SetInt("hop", 0)
		hsp.SetAttr("question", dec.Sequence[0])
	}
	first, firstCands, err := e.answerBFQ(hctx, dec.Sequence[0], tm)
	hsp.End()
	if err != nil {
		if Unanswerable(err) {
			return Answer{}, nil, false, nil
		}
		return Answer{}, nil, false, err
	}
	hsp.SetAttr("value", first.Value)
	steps := []Step{{
		Question:  dec.Sequence[0],
		Questions: []string{dec.Sequence[0]},
		Template:  first.Template,
		Path:      first.Path,
		Value:     first.Value,
	}}
	current := first.Values
	if len(current) > maxVals {
		current = current[:maxVals]
	}
	final := first
	finalCands := firstCands

	for hop, pat := range dec.Sequence[1:] {
		if err := ctx.Err(); err != nil {
			return Answer{}, nil, false, err
		}
		hctx, hsp := obs.StartSpan(ctx, "engine.hop")
		if hsp != nil {
			hsp.SetInt("hop", int64(hop+1))
			hsp.SetAttr("pattern", pat)
		}
		valueSet := make(map[string]bool)
		var stepAnswer Answer
		var stepCands []interpretation
		var stepQuestion string
		executed := make([]string, 0, len(current))
		hopAnswered := false
		for _, v := range current {
			if err := ctx.Err(); err != nil {
				hsp.End()
				return Answer{}, nil, false, err
			}
			q := decompose.Bind(pat, v)
			executed = append(executed, q)
			ans, cands, err := e.answerBFQ(hctx, q, tm)
			if err != nil {
				if Unanswerable(err) {
					continue
				}
				hsp.End()
				return Answer{}, nil, false, err
			}
			hopAnswered = true
			if !ans.less(stepAnswer) {
				stepAnswer = ans
				stepCands = cands
				stepQuestion = q
			}
			for _, nv := range ans.Values {
				valueSet[nv] = true
			}
		}
		hsp.SetInt("bindings", int64(len(executed)))
		hsp.End()
		if !hopAnswered {
			return Answer{}, nil, false, nil
		}
		hsp.SetAttr("value", stepAnswer.Value)
		next := make([]string, 0, len(valueSet))
		for v := range valueSet {
			next = append(next, v)
		}
		sort.Strings(next)
		if len(next) > maxVals {
			next = next[:maxVals]
		}
		steps = append(steps, Step{
			Question:  stepQuestion,
			Questions: executed,
			Template:  stepAnswer.Template,
			Path:      stepAnswer.Path,
			Value:     stepAnswer.Value,
		})
		current = next
		final = stepAnswer
		finalCands = stepCands
		final.Values = next
	}

	final.Steps = steps
	if len(final.Values) > 0 {
		final.Value = final.Values[0]
		for _, v := range final.Values {
			if v == steps[len(steps)-1].Value {
				final.Value = v
				break
			}
		}
	}
	return final, e.rankTopK(finalCands, k), true, nil
}

// less orders answers by score for picking the strongest step answer; the
// trailing tie-breaks keep chain execution deterministic when two bindings
// answer with exactly the same mass.
func (a Answer) less(b Answer) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	if a.Path != b.Path {
		return a.Path > b.Path
	}
	return a.Template > b.Template
}
