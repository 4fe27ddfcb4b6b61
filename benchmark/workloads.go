package main

import "math/rand"

// Workload is one traffic mix against one deployment.
type Workload struct {
	Name  string
	Why   string
	Scale int
	// Image serves the KB from a memory-mapped snapshot image instead of
	// the in-memory store.
	Image bool
	// Rounds is how many times an untraced run sets the deployment up
	// and measures it: 3 where a set-up takes seconds, 5 where it is
	// cheap and the hit path's speed swings within a run.
	Rounds int
	// StreamLen is the length of the generated question stream the
	// clients cycle through.
	StreamLen int
	// Pool, when nonzero, is the number of distinct questions the stream
	// draws from; each gets a consistency check across its replies.
	Pool int
	// ReloadEvery, when nonzero, reloads the model after every
	// ReloadEvery queries.
	ReloadEvery int64
	// NoCache runs the server without its answer cache.
	NoCache bool
	// Stream generates the workload's questions from its seed.
	Stream func(w *World, seed int64, n int) []*Question
}

var workloads = []*Workload{
	{
		Name:      "factoid_longtail",
		Why:       "Scale 1500, in-memory: uniform draws from ~185k distinct questions miss the 4096-entry cache, so parse, link, match and probe carry the load",
		Scale:     1500,
		Rounds:    3,
		StreamLen: 1 << 17,
		Stream:    longtailStream,
	},
	{
		Name:        "hot_cached",
		Why:         "Scale 30: Zipf draws over 1000 questions hit the cache >95%; a model reload every 32768 queries bumps the cache generation and sets off refills",
		Scale:       30,
		Rounds:      5,
		StreamLen:   1 << 18,
		Pool:        hotPoolSize,
		ReloadEvery: 1 << 15,
		Stream:      hotStream,
	},
	{
		Name:      "analytic_variants",
		Why:       "Scale 1500 over the mmap KB image, cache off: ranking, comparison and listing scans plus 20% BFQs load the variant engine and image probes",
		Scale:     1500,
		Image:     true,
		Rounds:    3,
		NoCache:   true,
		StreamLen: 1 << 13,
		Stream:    analyticStream,
	},
}

func workloadByName(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// pattern builds a fixed sequence of shapes with the given counts, in a
// shuffled order that does not depend on the workload seed. Streams repeat
// it, so every stretch of a stream has the same mix of shapes and the seed
// only picks the questions.
func pattern(counts ...struct {
	shape Shape
	n     int
}) []Shape {
	var p []Shape
	for _, c := range counts {
		for i := 0; i < c.n; i++ {
			p = append(p, c.shape)
		}
	}
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

type count = struct {
	shape Shape
	n     int
}

// drawer hands out questions of each shape for one seeded stream; rare
// and complex questions come from finite seeded pools, the rest are drawn
// fresh.
type drawer struct {
	w       *World
	r       *rand.Rand
	rare    []*Question
	complex []*Question
	// variants counts variant questions drawn; they cycle through the
	// numeric intents so each intent's share is fixed.
	variants int
}

func newDrawer(w *World, seed int64, pool int) *drawer {
	return &drawer{
		w:       w,
		r:       rand.New(rand.NewSource(seed)),
		rare:    w.Rare(seed+1, pool),
		complex: w.Complex(seed+2, pool),
	}
}

func (d *drawer) next(s Shape) *Question {
	switch s {
	case ShapeBFQ:
		return d.w.BFQ(d.r.Intn(d.w.PoolSize()))
	case ShapeRare:
		return d.rare[d.r.Intn(len(d.rare))]
	case ShapeComplex:
		return d.complex[d.r.Intn(len(d.complex))]
	case ShapeOffKB:
		return d.w.OffKB(d.r)
	}
	d.variants++
	switch s {
	case ShapeRanking:
		return d.w.Ranking(d.r, d.variants)
	case ShapeComparison:
		return d.w.Comparison(d.r, d.variants)
	default:
		return d.w.Listing(d.r, d.variants)
	}
}

func (d *drawer) stream(p []Shape, n int) []*Question {
	out := make([]*Question, n)
	for i := range out {
		out[i] = d.next(p[i%len(p)])
	}
	return out
}

var (
	longtailPattern = pattern(count{ShapeBFQ, 16}, count{ShapeRare, 2}, count{ShapeComplex, 1}, count{ShapeOffKB, 1})
	analyticPattern = pattern(count{ShapeRanking, 3}, count{ShapeComparison, 3}, count{ShapeListing, 2}, count{ShapeBFQ, 2})
	// hotPattern fixes the shape of each popularity rank modulo its
	// length: 40 BFQs, 3 complex, 2 variants and 5 unanswerable questions
	// in every 50 ranks.
	hotPattern = pattern(count{ShapeBFQ, 40}, count{ShapeComplex, 3}, count{ShapeRanking, 1},
		count{ShapeComparison, 1}, count{ShapeRare, 2}, count{ShapeOffKB, 3})
)

func longtailStream(w *World, seed int64, n int) []*Question {
	return newDrawer(w, seed, 8192).stream(longtailPattern, n)
}

func analyticStream(w *World, seed int64, n int) []*Question {
	return newDrawer(w, seed, 256).stream(analyticPattern, n)
}

// hotPoolSize is the number of distinct questions of the hot workload.
const hotPoolSize = 1000

// hotStream draws Zipf-skewed ranks over a pool of hotPoolSize questions.
func hotStream(w *World, seed int64, n int) []*Question {
	d := newDrawer(w, seed, 256)
	pool := make([]*Question, hotPoolSize)
	seen := make(map[string]bool, hotPoolSize)
	for i := range pool {
		for {
			q := d.next(hotPattern[i%len(hotPattern)])
			if seen[q.Text] {
				continue
			}
			seen[q.Text] = true
			cp := *q
			cp.Pool = i
			pool[i] = &cp
			break
		}
	}
	z := rand.NewZipf(d.r, 1.1, 10, hotPoolSize-1)
	out := make([]*Question, n)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}
