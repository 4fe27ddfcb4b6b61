package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/decompose"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/infobox"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/shardrpc"
	"repro/internal/template"
	"repro/internal/text"
	"repro/kbqa"
)

// layerSampleSize is how many distinct non-variant questions of the
// stream the traced run walks through the layers one by one.
const layerSampleSize = 300

// maxSpansWritten caps the span file: the layer walk and set-up spans come
// first, then the traced requests' spans up to the cap.
const maxSpansWritten = 200_000

// traced is the --trace 1 run: closed-loop phases untraced for dur/4,
// traced for dur/2 and untraced for dur/4 (the difference is the tracing
// overhead), then sequential timings of each layer's public functions on
// a sample of the workload's questions, then a staged set-up. All spans
// count their times from the same epoch.
func (res *Result) traced(d *Deployment, inf *Infra, wl *Workload, qs []*Question, variants []*Question, cfg loopConfig, dur time.Duration, rate float64, outDir string) error {
	m := res.Metrics
	put := func(name string, v float64) {
		for _, pl := range perLayer {
			if pl.Name == name {
				m[name] = Value{v, pl.Unit}
				return
			}
		}
		panic("unregistered per-layer metric " + name)
	}

	// Untraced, traced, untraced: the two untraced quarters bracket the
	// traced half, so drift over the run does not read as overhead.
	var pu, pt *Phase
	cfg.epoch = time.Now()
	for i, traced := range []bool{false, true, false} {
		cfg.trace = traced
		cfg.dur = dur / 4
		if traced {
			cfg.dur = dur / 2
		}
		cfg.capacity = int(rate*cfg.dur.Seconds()*1.5/clients) + 1024
		p := runPhase(d, qs, cfg)
		if p.ReloadErr != nil {
			return p.ReloadErr
		}
		switch {
		case traced:
			pt = p
		case i == 0:
			pu = p
		default:
			pu.add(p)
		}
	}
	untraced := map[string]Value{}
	res.endToEnd(pu, untraced)
	for k, v := range untraced {
		res.Info["untraced."+k] = v.Value
	}
	res.check(pt)
	res.phaseInfo(pt)

	nu := float64(pu.Attempted())
	put("gc.cycles_per_kq", float64(pu.GCCycles)/(nu/1000))
	put("decompose.complex_share", float64(pu.Complex)/nu)
	put("trace.overhead_us", (percentile(pt.Lat, 0.5)-percentile(pu.Lat, 0.5))/1e3)

	from, to := pt.MetricsFrom, pt.MetricsTo
	served := float64(to.Served - from.Served)
	put("serve.hit_ratio", float64(to.CacheHits-from.CacheHits)/max(served, 1))
	put("serve.deduped", float64(to.Deduped-from.Deduped))
	put("serve.evictions_per_kq", float64(to.CacheEvictions-from.CacheEvictions)/(served/1000))
	refill := 0.0
	if len(pt.Reloads) > 0 {
		refill = float64(to.CacheMisses-from.CacheMisses) / float64(len(pt.Reloads))
	}
	put("serve.refill_misses", refill)

	sample := sampleOf(qs, layerSampleSize)
	if err := res.systemLayers(d, sample, variants, pt.Reloads, put); err != nil {
		return err
	}
	spans := NewSpanStore(cfg.epoch, 1<<16)
	if err := res.engineLayers(wl, inf, sample, spans, put); err != nil {
		return err
	}
	if err := res.setupLayers(d, wl, spans, put); err != nil {
		return err
	}
	for _, pl := range perLayer {
		if _, ok := m[pl.Name]; !ok {
			return fmt.Errorf("traced run did not measure %s", pl.Name)
		}
	}
	spans.Merge(pt.Spans)
	sum := Summarize(spans.Spans)
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Layers = append(res.Layers, *sum[n])
	}
	res.Info["server_query_self_us"] = sum["Server.Query"].MeanSelfUS()
	res.Info["layers_root_self_us"] = sum["layers"].MeanSelfUS()
	res.Info["spans_total"] = float64(len(spans.Spans))
	return spans.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", wl.Name, res.Seed)), maxSpansWritten)
}

// sampleOf returns up to n distinct non-variant questions of the stream,
// in stream order.
func sampleOf(qs []*Question, n int) []*Question {
	seen := map[string]bool{}
	var out []*Question
	for _, q := range qs {
		if len(out) == n {
			break
		}
		if q.Shape.Variant() || seen[q.Text] {
			continue
		}
		seen[q.Text] = true
		out = append(out, q)
	}
	return out
}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// systemLayers times the public kbqa calls one question at a time: the
// engine stages of System.Query, the cost of variant recognition, the
// serving layer's hit and miss paths, and model reloads.
func (res *Result) systemLayers(d *Deployment, sample, variants []*Question, reloads []float64, put func(string, float64)) error {
	ctx := context.Background()
	sys := d.Sys
	var query, noVar []float64
	var parse, match, probe, unattr float64
	answered := 0
	for i, q := range sample {
		// Alternate which form runs first so neither always finds the
		// other's work in the CPU caches.
		var withV, without float64
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				t := time.Now()
				r, err := sys.Query(ctx, q.Text)
				withV = since(t)
				if err == nil && r.Answer != nil {
					tm := r.Timings
					parse += us(tm.Parse)
					match += us(tm.Match)
					probe += us(tm.Probe)
					unattr += withV - us(tm.Parse+tm.Match+tm.Probe)
					answered++
				}
			} else {
				t := time.Now()
				sys.Query(ctx, q.Text, kbqa.WithoutVariants())
				without = since(t)
			}
		}
		query = append(query, withV)
		noVar = append(noVar, without)
	}
	a := float64(max(answered, 1))
	put("kbqa.query_us", median(query))
	put("kbqa.variant_probe_us", median(query)-median(noVar))
	put("core.parse_us", parse/a)
	put("core.match_us", match/a)
	put("core.probe_us", probe/a)
	put("core.unattributed_us", unattr/a)

	byKind := map[Shape][]float64{}
	for _, q := range variants {
		r, err := sys.Query(ctx, q.Text)
		if err != nil || r.Variant == nil {
			continue
		}
		byKind[q.Shape] = append(byKind[q.Shape], us(r.Timings.Total))
	}
	put("core.variant_us.ranking", median(byKind[ShapeRanking]))
	put("core.variant_us.comparison", median(byKind[ShapeComparison]))
	put("core.variant_us.listing", median(byKind[ShapeListing]))

	// A fresh server: the first Query of a question misses, the second
	// hits. The miss overhead is the serving layer's share of a miss.
	fresh, err := sys.Server(kbqa.ServerOptions{})
	if err != nil {
		return err
	}
	defer fresh.Close()
	var miss, direct, hit []float64
	for i, q := range sample {
		var tm, td float64
		for k := 0; k < 2; k++ {
			t := time.Now()
			if (i+k)%2 == 0 {
				fresh.Query(ctx, q.Text)
				tm = since(t)
			} else {
				sys.Query(ctx, q.Text)
				td = since(t)
			}
		}
		t := time.Now()
		fresh.Query(ctx, q.Text)
		hit = append(hit, since(t))
		miss, direct = append(miss, tm), append(direct, td)
	}
	put("serve.hit_us", median(hit))
	put("serve.miss_overhead_us", median(miss)-median(direct))

	// Reloads of the served model; the hot-set workload already made some
	// under load.
	var model bytes.Buffer
	if err := sys.SaveModel(&model); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		t := time.Now()
		if err := sys.LoadModel(bytes.NewReader(model.Bytes())); err != nil {
			return err
		}
		reloads = append(reloads, float64(time.Since(t).Nanoseconds())/1e6)
	}
	put("kbqa.reload_ms", median(reloads))
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// engineLayers walks each sample question through the layers the engine
// composes, calling their public functions in the engine's order against
// an identically seeded eval world, with a span around every call. Probes
// run against the in-memory store, a KB image of the same world, and a
// loopback shard server.
func (res *Result) engineLayers(wl *Workload, inf *Infra, sample []*Question, spans *SpanStore, put func(string, float64)) error {
	cfg := eval.DefaultWorldConfig(kbgen.Freebase)
	cfg.Scale = wl.Scale
	w := eval.BuildWorld(cfg)
	store, ok := w.KB.Store.(rdf.Sharded)
	if !ok {
		return fmt.Errorf("layer world is not sharded")
	}

	imgPath := filepath.Join(inf.dir, "layers.img")
	if err := snapshot.WriteImageFile(imgPath, store); err != nil {
		return err
	}
	var opens []float64
	var img *snapshot.Image
	for i := 0; i < 5; i++ {
		if img != nil {
			img.Close()
		}
		t := time.Now()
		var err error
		img, err = snapshot.OpenImage(imgPath, snapshot.OpenOptions{})
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t).Nanoseconds())/1e6)
	}
	defer img.Close()
	put("snapshot.open_ms", median(opens))

	remote, srv, closeRemote, err := remoteKB(store)
	if err != nil {
		return err
	}
	defer closeRemote()
	rpc0 := srv.Stats()

	ctx := context.Background()
	var mentions, entities, templates, paths, probes, hits int
	for i, q := range sample {
		req := int64(i)
		root := spans.Begin("layers", req, -1)
		t := time.Now()
		toks := text.Tokenize(q.Text)
		spans.Add("text.Tokenize", req, root, t, time.Now())
		t = time.Now()
		ms := extract.FindMentions(store, toks)
		spans.Add("extract.FindMentions", req, root, t, time.Now())
		mentions += len(ms)
		for _, mn := range ms {
			entities += len(mn.Entities)
			t = time.Now()
			tws := template.DeriveAll(w.KB.Taxonomy, toks, mn.Span, mn.Surface)
			spans.Add("template.DeriveAll", req, root, t, time.Now())
			templates += len(tws)
			for _, tw := range tws {
				t = time.Now()
				dist := w.Model.PredDist(tw.Text)
				spans.Add("learn.PredDist", req, root, t, time.Now())
				paths += len(dist)
				keys := make([]string, 0, len(dist))
				for k := range dist {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					t = time.Now()
					path, ok := store.ParsePath(k)
					spans.Add("rdf.ParsePath", req, root, t, time.Now())
					if !ok {
						continue
					}
					for _, ent := range mn.Entities {
						probes++
						t = time.Now()
						vals := store.PathObjects(ent, path)
						spans.Add("rdf.PathObjects", req, root, t, time.Now())
						if len(vals) > 0 {
							hits++
						}
						t = time.Now()
						img.PathObjects(ent, path)
						spans.Add("snapshot.PathObjects", req, root, t, time.Now())
						t = time.Now()
						if _, err := remote.PathObjectsCtx(ctx, ent, path); err != nil {
							return err
						}
						spans.Add("shardrpc.PathObjectsCtx", req, root, t, time.Now())
					}
				}
			}
		}
		dec := decomposerFor(w, ms)
		t = time.Now()
		dec.DecomposeTokens(toks)
		spans.Add("decompose.DecomposeTokens", req, root, t, time.Now())
		spans.End(root)
	}

	rpc1 := srv.Stats()

	// Allocation of entity linking alone, outside any span bookkeeping.
	toks := make([][]string, len(sample))
	for i, q := range sample {
		toks[i] = text.Tokenize(q.Text)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, tk := range toks {
		extract.FindMentions(store, tk)
	}
	runtime.ReadMemStats(&m1)

	sum := Summarize(spans.Spans)
	n := float64(len(sample))
	put("text.tokenize_us", sum["text.Tokenize"].MeanUS())
	put("extract.link_us", sum["extract.FindMentions"].MeanUS())
	put("extract.link_alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	put("extract.mentions_per_q", float64(mentions)/n)
	put("extract.entities_per_q", float64(entities)/n)
	put("template.derive_us", meanOf(sum, "template.DeriveAll"))
	put("template.templates_per_mention", float64(templates)/float64(max(mentions, 1)))
	put("learn.paths_per_q", float64(paths)/n)
	put("rdf.probe_us", meanOf(sum, "rdf.PathObjects"))
	put("rdf.probes_per_q", float64(probes)/n)
	put("rdf.probe_hit_ratio", float64(hits)/float64(max(probes, 1)))
	put("snapshot.probe_us", meanOf(sum, "snapshot.PathObjects"))
	put("shardrpc.probe_us", meanOf(sum, "shardrpc.PathObjectsCtx"))
	put("shardrpc.rpcs_per_q", float64(rpc1.Requests-rpc0.Requests)/n)
	put("shardrpc.server_failures", float64(rpc1.Failures-rpc0.Failures))
	put("decompose.dp_us", meanOf(sum, "decompose.DecomposeTokens"))
	return nil
}

func meanOf(sum map[string]*LayerSummary, name string) float64 {
	if l := sum[name]; l != nil {
		return l.MeanUS()
	}
	return 0
}

// decomposerFor builds the decomposition DP the way the engine does: its
// δ oracle accepts a span only when it contains a mention of the question
// and answers as a BFQ on its own.
func decomposerFor(w *eval.World, ms []extract.Mention) *decompose.Decomposer {
	return &decompose.Decomposer{
		Stats:             w.Stats,
		MaxQuestionTokens: 23,
		Primitive: func(toks []string, sp text.Span) bool {
			for _, m := range ms {
				if sp.Contains(m.Span) {
					_, ok := w.Engine.AnswerBFQ(text.Join(toks[sp.Start:sp.End]))
					return ok
				}
			}
			return false
		},
	}
}

// remoteKB serves store from a loopback shard server and returns the
// client KB over it, the server, and the function that stops both.
func remoteKB(store rdf.Sharded) (*shardrpc.KB, *shardrpc.Server, func(), error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	srv := shardrpc.NewServer(store, shardrpc.ServerOptions{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(context.Background(), lis)
	}()
	stop := func() {
		srv.Close()
		wg.Wait()
	}
	pl, err := shardrpc.NewPlacement([]string{lis.Addr().String()}, store.NumShards(), 1)
	if err != nil {
		stop()
		return nil, nil, nil, err
	}
	pool, err := shardrpc.NewPool(shardrpc.PoolOptions{Placement: pl, Fingerprint: shardrpc.Fingerprint(store, store.NumShards())})
	if err != nil {
		stop()
		return nil, nil, nil, err
	}
	return shardrpc.NewKB(store, pool), srv, func() { pool.Close(); stop() }, nil
}

// setupLayers replays eval.BuildWorld step by step with a span around
// each module's call, and times System.Server.
func (res *Result) setupLayers(d *Deployment, wl *Workload, spans *SpanStore, put func(string, float64)) error {
	cfg := eval.DefaultWorldConfig(kbgen.Freebase)
	cfg.Scale = wl.Scale
	req := int64(-1)
	root := spans.Begin("setup", req, -1)
	step := func(name, metric string, f func()) {
		t := time.Now()
		f()
		spans.Add(name, req, root, t, time.Now())
		put(metric, time.Since(t).Seconds())
	}
	w := &eval.World{Cfg: cfg}
	step("kbgen.Generate", "kbgen.generate_s", func() {
		w.KB = kbgen.Generate(kbgen.Config{Seed: cfg.Seed, Flavor: cfg.Flavor, Scale: cfg.Scale, Shards: cfg.Shards})
	})
	step("corpus.Generate", "corpus.generate_s", func() {
		w.Pairs = corpus.Generate(w.KB, corpus.Config{Seed: cfg.Seed + 1, PairsPerIntent: cfg.PairsPerIntent, NoiseRate: cfg.NoiseRate})
	})
	learner := w.Learner()
	qa := make([]learn.QA, len(w.Pairs))
	for i, p := range w.Pairs {
		qa[i] = learn.QA{Q: p.Q, A: p.A}
	}
	step("learn.BuildObservations", "learn.observations_s", func() { w.Obs = learner.BuildObservations(qa) })
	step("learn.EM", "learn.em_s", func() { w.Model = learner.EM(w.Obs) })
	step("decompose.BuildStats", "decompose.stats_s", func() {
		w.Stats = decompose.BuildStats(corpus.Questions(w.Pairs), func(toks []string, sp text.Span) bool {
			return len(w.KB.Store.EntitiesByLabel(text.Join(text.CutSpan(toks, sp)))) > 0
		})
	})
	step("eval.extras", "eval.extras_s", func() {
		w.Infobox = infobox.Build(w.KB.Store, infobox.Config{Seed: cfg.Seed + 2})
		w.WebDocs = corpus.GenerateWebDocs(w.KB, cfg.Seed+3, cfg.PairsPerIntent)
		lex := baseline.DefaultLexicon()
		w.Systems = map[string]baseline.System{
			"keyword": &baseline.Keyword{KB: w.KB.Store},
			"synonym": &baseline.Synonym{KB: w.KB.Store, Lexicon: lex},
			"graph":   &baseline.GraphMatch{KB: w.KB.Store, Lexicon: lex, PathSynonyms: baseline.DefaultPathSynonyms()},
			"rule":    &baseline.Rule{KB: w.KB.Store},
		}
	})
	spans.End(root)

	var srv []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		s, err := d.Sys.Server(kbqa.ServerOptions{})
		srv = append(srv, float64(time.Since(t).Nanoseconds())/1e6)
		if err != nil {
			return err
		}
		s.Close()
	}
	put("kbqa.server_ms", median(srv))
	return nil
}
