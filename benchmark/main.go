// Command benchmark is the repository's benchmark of record. It runs one
// workload against the kbqa public API in a closed loop, checks every
// answer against the generator's gold, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run) as the last
// line of its output:
//
//	bash benchmark/run.sh --workload factoid_longtail --seed 1 --seconds 10 --trace 0
//
// Other modes:
//
//	bash benchmark/run.sh manifest            # print BENCHMARK.json
//	bash benchmark/run.sh compare PARENT CHANGE  # verdicts from two result dirs
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is everything one run measured; the last output line is its
// summary and the whole of it is written under .bench_build/results.
type Result struct {
	Workload  string                    `json:"workload"`
	Seed      int64                     `json:"seed"`
	Trace     bool                      `json:"trace"`
	Env       Env                       `json:"env"`
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]Value          `json:"metrics"`
	Info      map[string]float64        `json:"info"`
	Verdicts  map[string]map[string]int `json:"verdicts"`
	Layers    []LayerSummary            `json:"layers,omitempty"`
	Failures  []string                  `json:"failures,omitempty"`
}

// Line is the summary object printed last.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "manifest":
			b, err := manifest()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(b)
			return
		case "compare":
			if len(os.Args) != 4 {
				fatal(fmt.Errorf("usage: compare PARENT_DIR CHANGE_DIR"))
			}
			if err := compareDirs(os.Stdout, os.Args[2], os.Args[3]); err != nil {
				fatal(err)
			}
			return
		}
	}
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", runSeconds, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files")
	flag.Parse()
	wl := workloadByName(*name)
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := run(wl, *seed, time.Duration(*secs)*time.Second, *trace == 1, *out)
	if err != nil {
		fatal(err)
	}
	info, _ := json.Marshal(map[string]any{"env": res.Env, "info": res.Info, "verdicts": res.Verdicts, "failures": res.Failures})
	fmt.Printf("info %s\n", info)
	line, _ := json.Marshal(Line{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

const clients = 2

// run measures one workload: generate its questions, set the deployment
// up, warm it, measure the closed loop, and check every answer.
func run(wl *Workload, seed int64, dur time.Duration, trace bool, outDir string) (*Result, error) {
	res := &Result{
		Workload: wl.Name, Seed: seed, Trace: trace, Env: stamp(seed),
		Metrics: map[string]Value{}, Info: map[string]float64{}, Verdicts: map[string]map[string]int{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	gw := NewWorld(wl.Scale)
	qs := wl.Stream(gw, seed, wl.StreamLen)
	res.Info["pool_size"] = float64(cmp.Or(wl.Pool, gw.PoolSize()))
	inf, err := prepare(wl, gw, work)
	if err != nil {
		return nil, err
	}
	variants := variantSample(gw, seed)
	gw = nil // the generator's KB is not part of the system under test

	cfg := loopConfig{clients: clients, reloadEvery: wl.ReloadEvery, poolSize: wl.Pool}
	if trace {
		d, dt, err := setUp(wl, inf)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		res.Info["setup_s"] = dt.Seconds()
		cfg, err := withModel(d, cfg)
		if err != nil {
			return nil, err
		}
		rate, err := res.warm(d, qs, cfg)
		if err != nil {
			return nil, err
		}
		if err := res.traced(d, inf, wl, qs, variants, cfg, dur, rate, outDir); err != nil {
			return nil, err
		}
	} else if err := res.rounds(wl, inf, qs, cfg, dur); err != nil {
		return nil, err
	}
	if err := res.write(outDir); err != nil {
		return nil, err
	}
	return res, nil
}

// rounds measures the end-to-end metrics over wl.Rounds fresh
// deployments. Each set-up is timed, warmed and measured for its share of
// the run, and the run reports the median round: host noise that slows
// one stretch of time moves one round, not the result.
func (res *Result) rounds(wl *Workload, inf *Infra, qs []*Question, cfg loopConfig, dur time.Duration) error {
	var setup, heap, qps, p50 []float64
	var all *Phase
	for i := 0; i < wl.Rounds; i++ {
		heap0 := liveHeap()
		d, dt, err := setUp(wl, inf)
		if err != nil {
			return err
		}
		setup = append(setup, dt.Seconds())
		heap = append(heap, (liveHeap()-heap0)/(1<<20))
		p, err := res.measure(d, qs, cfg, dur/time.Duration(wl.Rounds))
		if err := cmp.Or(err, d.Close()); err != nil {
			return err
		}
		qps = append(qps, float64(p.Attempted())/p.Wall.Seconds())
		p50 = append(p50, percentile(p.Lat, 0.50)/1e3)
		if all == nil {
			all = p
		} else {
			all.add(p)
		}
	}
	res.endToEnd(all, res.Metrics)
	m := res.Metrics
	m["setup_s"] = Value{median(setup), "s"}
	m["live_heap_mb"] = Value{median(heap), "MB"}
	m["throughput_qps"] = Value{median(qps), "1/s"}
	m["latency_p50_us"] = Value{median(p50), "us"}
	res.Info["setup_s"] = m["setup_s"].Value
	res.Info["live_heap_mb"] = m["live_heap_mb"].Value
	return nil
}

// measure warms a deployment and measures one closed-loop phase.
func (res *Result) measure(d *Deployment, qs []*Question, cfg loopConfig, dur time.Duration) (*Phase, error) {
	cfg, err := withModel(d, cfg)
	if err != nil {
		return nil, err
	}
	rate, err := res.warm(d, qs, cfg)
	if err != nil {
		return nil, err
	}
	cfg.dur = dur
	cfg.capacity = int(rate*dur.Seconds()*1.5/clients) + 1024
	p := runPhase(d, qs, cfg)
	return p, p.ReloadErr
}

// withModel gives a reloading loop the bytes of the deployment's model.
func withModel(d *Deployment, cfg loopConfig) (loopConfig, error) {
	if cfg.reloadEvery > 0 {
		var buf bytes.Buffer
		if err := d.Sys.SaveModel(&buf); err != nil {
			return cfg, err
		}
		cfg.model = buf.Bytes()
	}
	return cfg, nil
}

// warm runs the loop for a second, checks its replies, and returns the
// rate it reached.
func (res *Result) warm(d *Deployment, qs []*Question, cfg loopConfig) (float64, error) {
	cfg.dur, cfg.capacity = time.Second, 1<<16
	p := runPhase(d, qs, cfg)
	if p.ReloadErr != nil {
		return 0, p.ReloadErr
	}
	res.check(p)
	return float64(p.Attempted()) / p.Wall.Seconds(), nil
}

// check adds a phase's replies to the checker's totals.
func (res *Result) check(p *Phase) {
	res.Attempted += p.Attempted()
	res.Failed += p.count(Failed) + p.Inconsist
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Failures = append(res.Failures, p.Failures...)
	if p.Inconsist > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d replies differed from an earlier reply to the same question", p.Inconsist))
	}
}

// endToEnd checks a measured phase and writes its end-to-end metrics
// into m.
func (res *Result) endToEnd(p *Phase, m map[string]Value) {
	res.check(p)
	n := p.Attempted()
	right, wrong := p.count(Right), p.count(Wrong)
	m["throughput_qps"] = Value{float64(n) / p.Wall.Seconds(), "1/s"}
	m["latency_p50_us"] = Value{percentile(p.Lat, 0.50) / 1e3, "us"}
	m["latency_p99_us"] = Value{percentile(p.Lat, 0.99) / 1e3, "us"}
	m["answered_ratio"] = Value{float64(right+wrong) / float64(n), "ratio"}
	m["precision"] = Value{float64(right) / float64(max(right+wrong, 1)), "ratio"}
	m["alloc_bytes_per_query"] = Value{float64(p.AllocBytes) / float64(n), "B"}

	res.Info["samples"] = float64(n)
	res.Info["failed_ratio"] = float64(p.count(Failed)+p.Inconsist) / float64(n)
	res.Info["p99_samples_beyond"] = float64(n) / 100
	res.Info["gc_cycles_per_kq"] = float64(p.GCCycles) / (float64(n) / 1000)
	res.phaseInfo(p)
}

// phaseInfo records the workload properties that make a gain
// workload-specific, and the verdicts by shape.
func (res *Result) phaseInfo(p *Phase) {
	n := float64(p.Attempted())
	from, to := p.MetricsFrom, p.MetricsTo
	served := float64(to.Served - from.Served)
	res.Info["hit_ratio"] = float64(to.CacheHits-from.CacheHits) / max(served, 1)
	res.Info["complex_share"] = float64(p.Complex) / n
	variants := p.shapeCount(ShapeRanking) + p.shapeCount(ShapeComparison) + p.shapeCount(ShapeListing)
	res.Info["variant_share"] = float64(variants) / n
	if len(p.Reloads) > 0 {
		res.Info["reloads"] = float64(len(p.Reloads))
	}
	for s := Shape(0); s < numShapes; s++ {
		if c := p.shapeCount(s); c > 0 {
			vs := map[string]int{}
			for v, k := range p.Verdicts[s] {
				if k > 0 {
					vs[Verdict(v).String()] = k
				}
			}
			res.Verdicts[s.String()] = vs
		}
	}
}

func (res *Result) write(dir string) error {
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, boolInt(res.Trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// liveHeap is the heap in use after a forced collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
