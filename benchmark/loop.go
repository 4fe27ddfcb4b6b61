package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/kbqa"
)

// clientResult is what one closed-loop client observed.
type clientResult struct {
	lat      []uint32 // per-call latency, ns
	verdicts [numShapes][4]int
	complex  int // answers that ran a multi-step chain
	// first holds the first reply per pool question, for the
	// consistency check; inconsistent counts later replies that differ.
	first        []*kbqa.Result
	firstSet     []bool
	inconsistent int
	failures     []string
	spans        *SpanStore
}

// Phase is the outcome of one closed-loop phase.
type Phase struct {
	Wall        time.Duration
	Lat         []uint32 // sorted
	Verdicts    [numShapes][4]int
	Complex     int
	Inconsist   int
	Failures    []string
	AllocBytes  uint64
	GCCycles    uint32
	Reloads     []float64 // LoadModel wall time per reload, ms
	ReloadErr   error
	Spans       *SpanStore
	MetricsFrom kbqa.ServerMetrics
	MetricsTo   kbqa.ServerMetrics
}

// Attempted is the number of queries sent.
func (p *Phase) Attempted() int { return len(p.Lat) }

// count sums verdict v over all shapes.
func (p *Phase) count(v Verdict) int {
	n := 0
	for _, s := range p.Verdicts {
		n += s[v]
	}
	return n
}

// shapeCount is the number of questions of a shape.
func (p *Phase) shapeCount(s Shape) int {
	n := 0
	for _, c := range p.Verdicts[s] {
		n += c
	}
	return n
}

// add folds a later phase's observations into p; the serving metrics
// keep p's starting snapshot.
func (p *Phase) add(q *Phase) {
	p.Wall += q.Wall
	p.Lat = append(p.Lat, q.Lat...)
	slices.Sort(p.Lat)
	for s := range q.Verdicts {
		for v := range q.Verdicts[s] {
			p.Verdicts[s][v] += q.Verdicts[s][v]
		}
	}
	p.Complex += q.Complex
	p.Inconsist += q.Inconsist
	p.Failures = append(p.Failures, q.Failures...)
	p.AllocBytes += q.AllocBytes
	p.GCCycles += q.GCCycles
	p.Reloads = append(p.Reloads, q.Reloads...)
	p.ReloadErr = cmp.Or(p.ReloadErr, q.ReloadErr)
	p.MetricsTo = q.MetricsTo
}

// loopConfig describes one closed-loop phase.
type loopConfig struct {
	clients  int
	dur      time.Duration
	capacity int // latency samples to preallocate per client
	poolSize int // >0 enables the per-pool-question consistency check
	trace    bool
	epoch    time.Time // span times count from here
	// reloadEvery > 0 reloads the model (model holds SaveModel bytes)
	// after every reloadEvery queries.
	reloadEvery int64
	model       []byte
}

// runPhase runs cfg.clients closed-loop clients over qs for cfg.dur. Each
// client sends its next question only after the previous reply; client c
// starts at offset c·len(qs)/clients and walks the stream in order.
func runPhase(d *Deployment, qs []*Question, cfg loopConfig) *Phase {
	ctx := context.Background()
	res := make([]*clientResult, cfg.clients)
	if cfg.epoch.IsZero() {
		cfg.epoch = time.Now()
	}
	for c := range res {
		cr := &clientResult{lat: make([]uint32, 0, cfg.capacity)}
		if cfg.poolSize > 0 {
			cr.first = make([]*kbqa.Result, cfg.poolSize)
			cr.firstSet = make([]bool, cfg.poolSize)
		}
		if cfg.trace {
			cr.spans = NewSpanStore(cfg.epoch, cfg.capacity)
		}
		res[c] = cr
	}
	p := &Phase{MetricsFrom: d.Srv.Metrics()}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// The model is reloaded after every cfg.reloadEvery queries, counted
	// across clients, so the share of refill work per query does not
	// depend on how fast the machine runs.
	var sent atomic.Int64
	reload := make(chan struct{}, 1)
	stopReload := make(chan struct{})
	var reloadWG sync.WaitGroup
	if cfg.reloadEvery > 0 {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			for {
				select {
				case <-stopReload:
					return
				case <-reload:
					t0 := time.Now()
					if err := d.Sys.LoadModel(bytes.NewReader(cfg.model)); err != nil {
						p.ReloadErr = fmt.Errorf("reload model: %w", err)
						return
					}
					p.Reloads = append(p.Reloads, float64(time.Since(t0).Nanoseconds())/1e6)
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(cfg.dur)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := res[c]
			i := c * len(qs) / cfg.clients
			for req := int64(c) << 40; ; req++ {
				q := qs[i]
				if i++; i == len(qs) {
					i = 0
				}
				t0 := time.Now()
				r, err := d.Srv.Query(ctx, q.Text)
				t1 := time.Now()
				cr.lat = append(cr.lat, uint32(min(t1.Sub(t0).Nanoseconds(), 1<<32-1)))
				v := Check(q, r, err)
				cr.verdicts[q.Shape][v]++
				if v == Failed && len(cr.failures) < 5 {
					cr.failures = append(cr.failures, fmt.Sprintf("%s %q: result=%v err=%v", q.Shape, q.Text, describe(r), err))
				}
				if r != nil && r.Answer != nil && len(r.Answer.Steps) > 1 {
					cr.complex++
				}
				if q.Pool >= 0 && cr.first != nil {
					if !cr.firstSet[q.Pool] {
						cr.first[q.Pool], cr.firstSet[q.Pool] = r, true
					} else if !sameAnswer(cr.first[q.Pool], r) {
						cr.inconsistent++
					}
				}
				if cr.spans != nil {
					traceQuery(cr.spans, req, t0, t1, r)
				}
				if cfg.reloadEvery > 0 && sent.Add(1)%cfg.reloadEvery == 0 {
					select {
					case reload <- struct{}{}:
					default:
					}
				}
				if t1.After(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p.Wall = time.Since(start)
	close(stopReload)
	reloadWG.Wait()
	runtime.ReadMemStats(&ms1)
	p.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.GCCycles = ms1.NumGC - ms0.NumGC
	p.MetricsTo = d.Srv.Metrics()

	for c, cr := range res {
		p.Lat = append(p.Lat, cr.lat...)
		for s := range cr.verdicts {
			for v := range cr.verdicts[s] {
				p.Verdicts[s][v] += cr.verdicts[s][v]
			}
		}
		p.Complex += cr.complex
		p.Inconsist += cr.inconsistent
		p.Failures = append(p.Failures, cr.failures...)
		if cr.spans != nil {
			if p.Spans == nil {
				p.Spans = cr.spans
			} else {
				p.Spans.Merge(cr.spans)
			}
		}
		// Clients must agree with each other too.
		if c > 0 && cr.first != nil {
			for k, ok := range cr.firstSet {
				if ok && res[0].firstSet[k] && !sameAnswer(res[0].first[k], cr.first[k]) {
					p.Inconsist++
				}
			}
		}
	}
	slices.Sort(p.Lat)
	return p
}

// traceQuery records the Server.Query root span of one request and the
// engine stages of its Result.Timings as children laid end to end from
// the call's start. A cache hit carries the timings of the computation
// that filled the cache, longer than the hit itself; its stages are not
// recorded.
func traceQuery(s *SpanStore, req int64, t0, t1 time.Time, r *kbqa.Result) {
	root := s.Add("Server.Query", req, -1, t0, t1)
	if r == nil {
		return
	}
	tm := r.Timings
	if tm.Parse+tm.Match+tm.Probe > t1.Sub(t0) {
		return
	}
	at := t0
	for _, st := range [...]struct {
		name string
		d    time.Duration
	}{{"stage.parse", tm.Parse}, {"stage.match", tm.Match}, {"stage.probe", tm.Probe}} {
		if st.d > 0 {
			s.Add(st.name, req, root, at, at.Add(st.d))
			at = at.Add(st.d)
		}
	}
}

func describe(r *kbqa.Result) string {
	switch {
	case r == nil:
		return "nil"
	case r.Variant != nil:
		return fmt.Sprintf("variant %s %v", r.Variant.Kind, r.Variant.Entities)
	case r.Answer != nil:
		return fmt.Sprintf("answer %q via %s", r.Answer.Value, r.Answer.Predicate)
	}
	return "empty"
}

// percentile returns the q-quantile of sorted samples (nearest rank).
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}
