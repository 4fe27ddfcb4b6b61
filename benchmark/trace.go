package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent indexes the causing span in the same store
// (-1 for a root).
type Span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// SpanStore keeps spans in memory until the run ends. A store is owned by
// one goroutine; stores of several goroutines are merged afterwards.
type SpanStore struct {
	epoch time.Time
	Spans []Span
}

// NewSpanStore returns a store whose times count from epoch.
func NewSpanStore(epoch time.Time, capacity int) *SpanStore {
	return &SpanStore{epoch: epoch, Spans: make([]Span, 0, capacity)}
}

// Add records a finished span and returns its index.
func (s *SpanStore) Add(name string, req int64, parent int32, start, end time.Time) int32 {
	s.Spans = append(s.Spans, Span{
		Name: name, Req: req, Parent: parent,
		Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds(),
	})
	return int32(len(s.Spans) - 1)
}

// Begin opens a span; End closes it.
func (s *SpanStore) Begin(name string, req int64, parent int32) int32 {
	return s.Add(name, req, parent, time.Now(), time.Time{})
}

// End closes span id now.
func (s *SpanStore) End(id int32) {
	s.Spans[id].End = time.Since(s.epoch).Nanoseconds()
}

// Merge appends other's spans, re-basing their parent indexes.
func (s *SpanStore) Merge(other *SpanStore) {
	off := int32(len(s.Spans))
	for _, sp := range other.Spans {
		if sp.Parent >= 0 {
			sp.Parent += off
		}
		s.Spans = append(s.Spans, sp)
	}
}

// WriteFile writes the first limit spans as JSON; a hot-set run records
// millions of request spans, and the summary already covers all of them.
func (s *SpanStore) WriteFile(path string, limit int) error {
	b, err := json.Marshal(s.Spans[:min(limit, len(s.Spans))])
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LayerSummary aggregates the spans of one name.
type LayerSummary struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_us"`
	// Self is the time not covered by the span's children.
	Self float64 `json:"self_us"`
}

// MeanUS is the mean duration per span.
func (l LayerSummary) MeanUS() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.Total / float64(l.Count)
}

// MeanSelfUS is the mean self time per span.
func (l LayerSummary) MeanSelfUS() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.Self / float64(l.Count)
}

// Summarize computes per-name count, total and self time. A span's self
// time is its duration minus the part of its interval that the union of
// its children covers; children are clipped to the parent.
func Summarize(spans []Span) map[string]*LayerSummary {
	children := make(map[int32][]int32)
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], int32(i))
		}
	}
	out := make(map[string]*LayerSummary)
	var iv [][2]int64
	for i, sp := range spans {
		dur := sp.End - sp.Start
		iv = iv[:0]
		for _, c := range children[int32(i)] {
			cs, ce := spans[c].Start, spans[c].End
			if cs < sp.Start {
				cs = sp.Start
			}
			if ce > sp.End {
				ce = sp.End
			}
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		covered := unionLen(iv)
		l := out[sp.Name]
		if l == nil {
			l = &LayerSummary{Name: sp.Name}
			out[sp.Name] = l
		}
		l.Count++
		l.Total += float64(dur) / 1e3
		l.Self += float64(dur-covered) / 1e3
	}
	return out
}

// unionLen is the total length of a set of intervals, overlaps counted
// once.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}
