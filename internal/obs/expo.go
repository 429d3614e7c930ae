package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, children sorted by
// label set, histograms as cumulative _bucket/_sum/_count series with
// `le` bounds in seconds. No-op on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, ch := range f.snapshotChildren() {
			switch {
			case ch.h != nil:
				writePromHistogram(bw, f.name, ch)
			case ch.fn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(ch.key), formatFloat(ch.fn()))
			case ch.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(ch.key), ch.c.Value())
			case ch.g != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(ch.key), ch.g.Value())
			}
		}
	}
	return bw.Flush()
}

func braced(key string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "}"
}

// joinLabels appends extra to an existing rendered label string.
func joinLabels(key, extra string) string {
	if key == "" {
		return extra
	}
	return key + "," + extra
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writePromHistogram(w io.Writer, name string, ch *child) {
	h := ch.h
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(float64(h.bounds[i]) / 1e9)
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(ch.key, `le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(ch.key), formatFloat(float64(h.sum.Load())/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(ch.key), h.count.Load())
}

// FamilySnapshot is one metric family in the JSON exposition
// (GET /v2/metrics): every value carries its labels, and histograms
// carry server-side p50/p90/p99 estimates so scrapers (the spotload
// drill's end-of-run fold) don't re-implement bucket math.
type FamilySnapshot struct {
	Name   string          `json:"name"`
	Type   string          `json:"type"`
	Help   string          `json:"help,omitempty"`
	Values []ValueSnapshot `json:"values"`
}

// ValueSnapshot is one labeled value within a family.
type ValueSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Count  uint64            `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	P50    float64           `json:"p50,omitempty"`
	P90    float64           `json:"p90,omitempty"`
	P99    float64           `json:"p99,omitempty"`
}

// Snapshot captures every family for the JSON exposition. Nil registry
// yields nil.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.snapshotFamilies()
	if fams == nil {
		return nil
	}
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.typ, Help: f.help}
		for _, ch := range f.snapshotChildren() {
			v := ValueSnapshot{Labels: labelMap(ch.labels)}
			switch {
			case ch.h != nil:
				v.Count = ch.h.Count()
				v.Sum = float64(ch.h.sum.Load()) / 1e9
				v.P50 = ch.h.Quantile(0.50)
				v.P90 = ch.h.Quantile(0.90)
				v.P99 = ch.h.Quantile(0.99)
				v.Value = float64(v.Count)
			case ch.fn != nil:
				v.Value = ch.fn()
			case ch.c != nil:
				v.Value = float64(ch.c.Value())
			case ch.g != nil:
				v.Value = float64(ch.g.Value())
			}
			fs.Values = append(fs.Values, v)
		}
		out = append(out, fs)
	}
	return out
}

func labelMap(pairs []string) map[string]string {
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[string]string, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

// TextHandler serves the registry as Prometheus text (GET /metrics).
func (r *Registry) TextHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the registry snapshot as JSON (GET /v2/metrics).
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		snap := r.Snapshot()
		if snap == nil {
			snap = []FamilySnapshot{}
		}
		_ = enc.Encode(snap)
	})
}
