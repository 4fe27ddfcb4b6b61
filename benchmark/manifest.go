package main

import (
	"encoding/json"
)

// Metric names a measured quantity.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Moves says which end-to-end metric a per-layer metric should move,
	// on which workload; it is documentation, not part of BENCHMARK.json.
	Moves string `json:"-"`
}

// endToEnd are the metrics a user of the system sees, with the share of
// the parent's median by which each may worsen before a change counts as
// a regression.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "answered_ratio", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "precision", Unit: "ratio", Better: "higher", Bound: 0.1},
	{Name: "alloc_bytes_per_query", Unit: "B", Better: "lower", Bound: 0.1},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

const (
	onLongtail = "factoid_longtail"
	onHot      = "hot_cached"
	onAnalytic = "analytic_variants"
	onAll      = "every workload"
)

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []Metric{
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_qps, latency_p50_us, latency_p99_us on " + onHot},
	{Name: "serve.hit_us", Unit: "us", Better: "lower", Moves: "throughput_qps, latency_p50_us on " + onHot},
	{Name: "serve.deduped", Unit: "count", Better: "higher", Moves: "latency_p99_us on " + onHot},
	{Name: "serve.refill_misses", Unit: "count", Better: "lower", Moves: "latency_p99_us on " + onHot},
	{Name: "serve.evictions_per_kq", Unit: "count", Better: "lower", Moves: "alloc_bytes_per_query on " + onLongtail},
	{Name: "serve.miss_overhead_us", Unit: "us", Better: "lower", Moves: "latency_p50_us on " + onLongtail},
	{Name: "kbqa.reload_ms", Unit: "ms", Better: "lower", Moves: "latency_p99_us on " + onHot},
	{Name: "kbqa.query_us", Unit: "us", Better: "lower", Moves: "latency_p50_us on " + onLongtail},
	{Name: "kbqa.variant_probe_us", Unit: "us", Better: "lower", Moves: "latency_p50_us on " + onLongtail},
	{Name: "core.parse_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "core.match_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "core.probe_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "core.unattributed_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "core.variant_us.ranking", Unit: "us", Better: "lower", Moves: "latency_p50_us, latency_p99_us, throughput_qps on " + onAnalytic},
	{Name: "core.variant_us.comparison", Unit: "us", Better: "lower", Moves: "latency_p50_us, latency_p99_us, throughput_qps on " + onAnalytic},
	{Name: "core.variant_us.listing", Unit: "us", Better: "lower", Moves: "latency_p50_us, latency_p99_us, throughput_qps on " + onAnalytic},
	{Name: "text.tokenize_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps, alloc_bytes_per_query on " + onLongtail},
	{Name: "extract.link_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps, alloc_bytes_per_query on " + onLongtail},
	{Name: "extract.link_alloc_bytes", Unit: "B", Better: "lower", Moves: "alloc_bytes_per_query on " + onLongtail},
	{Name: "extract.mentions_per_q", Unit: "count", Better: "lower", Moves: "latency_p50_us on " + onLongtail},
	{Name: "extract.entities_per_q", Unit: "count", Better: "lower", Moves: "latency_p50_us on " + onLongtail},
	{Name: "template.derive_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "template.templates_per_mention", Unit: "count", Better: "lower", Moves: "latency_p50_us on " + onLongtail},
	{Name: "learn.paths_per_q", Unit: "count", Better: "lower", Moves: "latency_p50_us on " + onLongtail},
	{Name: "rdf.probe_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "rdf.probes_per_q", Unit: "count", Better: "lower", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "rdf.probe_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_us, throughput_qps on " + onLongtail},
	{Name: "decompose.dp_us", Unit: "us", Better: "lower", Moves: "latency_p99_us on " + onLongtail},
	{Name: "decompose.complex_share", Unit: "ratio", Better: "lower", Moves: "latency_p99_us on " + onLongtail},
	{Name: "snapshot.probe_us", Unit: "us", Better: "lower", Moves: "throughput_qps on " + onAnalytic},
	{Name: "snapshot.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s on " + onAnalytic},
	{Name: "shardrpc.rpcs_per_q", Unit: "count", Better: "lower", Moves: "none here: no workload serves over shard servers; the traced run's probes only"},
	{Name: "shardrpc.probe_us", Unit: "us", Better: "lower", Moves: "none here: no workload serves over shard servers; the traced run's probes only"},
	{Name: "shardrpc.server_failures", Unit: "count", Better: "lower", Moves: "none here: no workload serves over shard servers; the traced run's probes only"},
	{Name: "kbgen.generate_s", Unit: "s", Better: "lower", Moves: "setup_s on " + onAll},
	{Name: "corpus.generate_s", Unit: "s", Better: "lower", Moves: "setup_s on " + onAll},
	{Name: "learn.observations_s", Unit: "s", Better: "lower", Moves: "setup_s on " + onAll},
	{Name: "learn.em_s", Unit: "s", Better: "lower", Moves: "setup_s on " + onAll},
	{Name: "decompose.stats_s", Unit: "s", Better: "lower", Moves: "setup_s on " + onAll},
	{Name: "eval.extras_s", Unit: "s", Better: "lower", Moves: "setup_s on " + onAll},
	{Name: "kbqa.server_ms", Unit: "ms", Better: "lower", Moves: "setup_s on " + onAll},
	{Name: "gc.cycles_per_kq", Unit: "count", Better: "lower", Moves: "latency_p99_us on " + onLongtail + " and " + onHot},
	{Name: "trace.overhead_us", Unit: "us", Better: "lower", Moves: "none: traced minus untraced median latency of the same run"},
}

// runSeconds is how long one run measures.
const runSeconds = 25

// Manifest is the content of BENCHMARK.json.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// manifest renders BENCHMARK.json from the registries above, so the file
// and the program cannot disagree.
func manifest() ([]byte, error) {
	m := Manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}
