package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/kbqa"
)

// TestStreamDeterministic: the same seed gives a byte-identical question
// stream, from independently generated worlds; another seed does not.
func TestStreamDeterministic(t *testing.T) {
	a, b := NewWorld(30), NewWorld(30)
	join := func(qs []*Question) string {
		var sb strings.Builder
		for _, q := range qs {
			sb.WriteString(q.Text)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	for _, wl := range workloads {
		x := join(wl.Stream(a, 7, 3000))
		if y := join(wl.Stream(b, 7, 3000)); x != y {
			t.Errorf("%s: seed 7 gave two different streams", wl.Name)
		}
		if z := join(wl.Stream(a, 8, 3000)); x == z {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl.Name)
		}
	}
}

// TestCheckerFlagsPlantedWrongAnswer: the checker accepts the system's
// real replies and flags planted wrong ones, wrong shapes and untyped
// errors.
func TestCheckerFlagsPlantedWrongAnswer(t *testing.T) {
	sys, err := kbqa.Build(kbqa.Options{Flavor: "freebase", Scale: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	w := NewWorld(30)
	ctx := context.Background()

	var bfq *Question
	var res *kbqa.Result
	for i := 0; i < w.PoolSize(); i++ {
		q := w.BFQ(i)
		if r, err := sys.Query(ctx, q.Text); err == nil && Check(q, r, nil) == Right {
			bfq, res = q, r
			break
		}
	}
	if bfq == nil {
		t.Fatal("no BFQ answered right")
	}
	planted := *res.Answer
	planted.Value, planted.Predicate = "no such value", "no_such_predicate"
	if v := Check(bfq, &kbqa.Result{Answer: &planted}, nil); v != Wrong {
		t.Errorf("planted wrong answer judged %v", v)
	}
	if v := Check(bfq, &kbqa.Result{Variant: &kbqa.VariantAnswer{Kind: "ranking"}}, nil); v != Failed {
		t.Errorf("BFQ answered by the variant engine judged %v", v)
	}
	if v := Check(bfq, nil, kbqa.ErrNoTemplate); v != Refused {
		t.Errorf("typed refusal judged %v", v)
	}
	if v := Check(bfq, nil, errors.New("shard down")); v != Failed {
		t.Errorf("untyped error judged %v", v)
	}

	r := newDrawer(w, 1, 16).r
	rank := w.Ranking(r, 0)
	got, err := sys.Query(ctx, rank.Text)
	if err != nil {
		t.Fatal(err)
	}
	if v := Check(rank, got, nil); v == Failed {
		t.Fatalf("ranking reply %s judged failed", describe(got))
	}
	list := w.Listing(r, 0)
	va := &kbqa.VariantAnswer{Kind: "listing", Entities: append([]string(nil), list.Gold...)}
	if v := Check(list, &kbqa.Result{Variant: va}, nil); v != Right {
		t.Errorf("gold listing judged %v", v)
	}
	va.Entities[0], va.Entities[1] = va.Entities[1], va.Entities[0]
	if v := Check(list, &kbqa.Result{Variant: va}, nil); v != Wrong {
		t.Errorf("listing in the wrong order judged %v", v)
	}
	va.Kind = "ranking"
	if v := Check(list, &kbqa.Result{Variant: va}, nil); v != Failed {
		t.Errorf("listing answered as a ranking judged %v", v)
	}
}

// TestSelfTime checks the summariser on a hand-built span tree: children
// overlapping each other count once, and a child running past its parent
// is clipped to it.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100_000},
		{Name: "a", Parent: 0, Start: 10_000, End: 30_000},
		{Name: "b", Parent: 0, Start: 20_000, End: 50_000},
		{Name: "c", Parent: 0, Start: 90_000, End: 120_000},
		{Name: "a1", Parent: 1, Start: 12_000, End: 17_000},
	}
	sum := Summarize(spans)
	want := map[string][2]float64{ // total, self in µs
		"root": {100, 50}, // covered: [10,50] ∪ [90,100]
		"a":    {20, 15},
		"b":    {30, 30},
		"c":    {30, 30},
		"a1":   {5, 5},
	}
	for name, w := range want {
		l := sum[name]
		if l == nil || l.Count != 1 || l.Total != w[0] || l.Self != w[1] {
			t.Errorf("%s = %+v, want total %v self %v", name, l, w[0], w[1])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestJudge runs compare mode's rule on synthetic runs.
func TestJudge(t *testing.T) {
	lat := Metric{Name: "latency_p50_us", Better: "lower", Bound: 0.1}
	series := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5-2)
		}
		return out
	}
	parent := series(100, 1) // IQR 2
	cases := []struct {
		name   string
		change []float64
		want   string
	}{
		{"clear gain", series(80, 1), VerdictWin},
		{"same", series(100, 1), VerdictWithin},
		{"small slowdown", series(105, 1), VerdictWithin},
		{"regression", series(130, 1), VerdictWorse},
		{"gain inside the parent's spread", series(99.5, 1), VerdictWithin},
	}
	for _, c := range cases {
		if got := judge(lat, parent, c.change); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
	noisy := series(100, 20) // IQR 40 > bound 10
	if got := judge(lat, noisy, series(105, 20)); got != VerdictUnresolved {
		t.Errorf("noisy parent: judge = %q, want unresolved", got)
	}
	if got := judge(lat, noisy, series(0, 1)); got != VerdictWin {
		t.Errorf("noisy parent, change far better: judge = %q, want win", got)
	}
	// Nine of ten pairs better is enough; eight is not.
	change := series(80, 1)
	change[0] = 200
	if got := judge(lat, parent, change); got != VerdictWin {
		t.Errorf("9/10 pairs: judge = %q, want win", got)
	}
	change[1] = 200
	if got := judge(lat, parent, change); got == VerdictWin {
		t.Errorf("8/10 pairs judged a win")
	}
	qps := Metric{Name: "throughput_qps", Better: "higher", Bound: 0.1}
	if got := judge(qps, parent, series(80, 1)); got != VerdictWorse {
		t.Errorf("lower throughput: judge = %q, want worse", got)
	}
}

// TestManifestMatchesFile: BENCHMARK.json is exactly what the registries
// generate, and the README names every per-layer metric.
func TestManifestMatchesFile(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json is stale; regenerate it with: bash benchmark/run.sh manifest > BENCHMARK.json")
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []Metric `json:"end_to_end"`
		PerLayer  []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range m.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	for _, x := range append(append([]Metric{}, m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(x.Name) || !unit.MatchString(x.Unit) || seen[x.Name] || (x.Better != "lower" && x.Better != "higher") || x.Bound > 0.25 {
			t.Errorf("metric %+v breaks the manifest's limits", x)
		}
		seen[x.Name] = true
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]Metric{}, endToEnd...), perLayer...) {
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not describe %s", m.Name)
		}
	}
}

// TestRunPhase drives the closed loop with model reloads under the race
// detector: every reply checks out and stays consistent across reloads.
func TestRunPhase(t *testing.T) {
	wl := workloadByName("hot_cached")
	w := NewWorld(wl.Scale)
	inf, err := prepare(wl, w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := setUp(wl, inf)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var model bytes.Buffer
	if err := d.Sys.SaveModel(&model); err != nil {
		t.Fatal(err)
	}
	p := runPhase(d, wl.Stream(w, 1, 4096), loopConfig{
		clients: 2, dur: 300 * time.Millisecond, capacity: 1024,
		poolSize: hotPoolSize, trace: true, reloadEvery: 200, model: model.Bytes(),
	})
	if p.ReloadErr != nil {
		t.Fatal(p.ReloadErr)
	}
	if p.Attempted() == 0 || len(p.Reloads) == 0 {
		t.Fatalf("attempted %d, reloads %d", p.Attempted(), len(p.Reloads))
	}
	if f := p.count(Failed); f > 0 || p.Inconsist > 0 {
		t.Errorf("%d failed, %d inconsistent: %v", f, p.Inconsist, p.Failures)
	}
	if n := Summarize(p.Spans.Spans)["Server.Query"]; n == nil || n.Count != p.Attempted() {
		t.Errorf("Server.Query spans %+v, want one per query (%d)", n, p.Attempted())
	}
}

// TestTracedRunReportsEveryLayer runs a short traced run end to end.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several worlds")
	}
	res, err := run(workloadByName("hot_cached"), 1, time.Second, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run not correct: %v", res.Failures)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("traced run did not report %s", m.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
}
