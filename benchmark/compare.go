package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return d[0], d[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}

// median is the median of xs (mean of the middle two for even counts),
// 0 for none.
func median(xs []float64) float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// Verdict strings of compare mode.
const (
	VerdictWin        = "win"
	VerdictWithin     = "within bound"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// judge applies the comparison rule to one (metric, workload): parent[i]
// and change[i] are a pair of runs. A win needs the change to be better
// in at least nine tenths of the pairs (ties count for neither side) and
// the medians to differ by more than the parent's interquartile range.
// Otherwise the change's median may be worse than the parent's by at most
// the metric's bound; where the parent's own spread is wider than the
// bound the metric is unresolved, unless every change run beats every
// parent run.
func judge(m Metric, parent, change []float64) string {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if pairs > 0 && wins*10 >= pairs*9 && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return VerdictWin
	}
	bound := m.Bound * math.Abs(pm)
	if (q3-q1) > bound && !allBetter(change, parent, better) {
		return VerdictUnresolved
	}
	if better(pm, cm) && math.Abs(cm-pm) > bound {
		return VerdictWorse
	}
	return VerdictWithin
}

func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// loadResults reads the untraced result files of a directory, by
// workload, ordered by seed.
func loadResults(dir string) (map[string][]*Result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*Result{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// compareDirs prints one row per workload: the verdict of every
// end-to-end metric and the failed share of each side.
func compareDirs(w io.Writer, parentDir, changeDir string) error {
	parent, err := loadResults(parentDir)
	if err != nil {
		return err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(parent))
	for n := range parent {
		if len(change[n]) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has results on both sides")
	}
	for _, n := range names {
		fmt.Fprintln(w, compareRow(n, parent[n], change[n]))
	}
	return nil
}

// compareRow renders one workload's verdicts.
func compareRow(name string, parent, change []*Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d parent, %d change runs): failed %s vs %s", name, len(parent), len(change), failedShare(parent), failedShare(change))
	for _, m := range endToEnd {
		p, c := values(parent, m.Name), values(change, m.Name)
		fmt.Fprintf(&b, "; %s %s (%.4g -> %.4g)", m.Name, judge(m, p, c), median(p), median(c))
	}
	return b.String()
}

func values(rs []*Result, metric string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(rs []*Result) string {
	a, f := 0, 0
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	return fmt.Sprintf("%d/%d", f, a)
}
