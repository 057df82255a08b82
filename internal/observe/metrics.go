package observe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Metric types, following the Prometheus exposition format.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Label is one name="value" metric label.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Bucket is one cumulative histogram bucket. LE is the pre-formatted
// upper bound ("+Inf" for the last bucket) so the Prometheus text and
// JSON forms render the identical string.
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"` // cumulative: observations ≤ LE
}

// Metric is one sample: a name, optional labels, and a float64 value.
// Histogram-typed samples carry cumulative buckets plus the sum and
// count instead of Value.
type Metric struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Type   string  `json:"type"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`

	// Histogram-only fields (Type == TypeHistogram).
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
}

// MetricSet is an ordered collection of samples with Prometheus
// text-format and JSON writers. It is a build-then-write value, not a
// live registry: a run finishes, the caller assembles the set from the
// run's stats and counters, and writes it out. Not safe for concurrent
// mutation.
type MetricSet struct {
	metrics []Metric
}

// NewMetricSet returns an empty set.
func NewMetricSet() *MetricSet { return &MetricSet{} }

// Add appends one sample. Samples with the same name should share help
// and type; the Prometheus writer emits the header of the first one.
func (ms *MetricSet) Add(name, typ, help string, value float64, labels ...Label) {
	ms.metrics = append(ms.metrics, Metric{
		Name: name, Help: help, Type: typ, Labels: labels, Value: value,
	})
}

// Counter appends a counter sample.
func (ms *MetricSet) Counter(name, help string, value float64, labels ...Label) {
	ms.Add(name, TypeCounter, help, value, labels...)
}

// Gauge appends a gauge sample.
func (ms *MetricSet) Gauge(name, help string, value float64, labels ...Label) {
	ms.Add(name, TypeGauge, help, value, labels...)
}

// Histogram appends a histogram sample built from a snapshot. Buckets
// are converted to the Prometheus cumulative form; Count is recomputed
// from the buckets so `_count` always equals the +Inf bucket.
func (ms *MetricSet) Histogram(name, help string, snap HistogramSnapshot, labels ...Label) {
	m := Metric{Name: name, Help: help, Type: TypeHistogram, Labels: labels, Sum: snap.Sum}
	m.Buckets = make([]Bucket, NumHistogramBuckets)
	var cum uint64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(histBounds) {
			le = formatValue(histBounds[i])
		}
		m.Buckets[i] = Bucket{LE: le, Count: cum}
	}
	m.Count = cum
	ms.metrics = append(ms.metrics, m)
}

// Len returns the number of samples.
func (ms *MetricSet) Len() int { return len(ms.metrics) }

// Metrics returns the samples in insertion order.
func (ms *MetricSet) Metrics() []Metric { return ms.metrics }

// WritePrometheus writes the set in the Prometheus text exposition
// format: samples grouped by metric name (first-seen order), each group
// preceded by its # HELP / # TYPE header.
func (ms *MetricSet) WritePrometheus(w io.Writer) error {
	groups := make(map[string][]Metric, len(ms.metrics))
	var order []string
	for _, m := range ms.metrics {
		if _, seen := groups[m.Name]; !seen {
			order = append(order, m.Name)
		}
		groups[m.Name] = append(groups[m.Name], m)
	}
	for _, name := range order {
		g := groups[name]
		if g[0].Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, g[0].Help); err != nil {
				return err
			}
		}
		typ := g[0].Type
		if typ == "" {
			typ = "untyped"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		for _, m := range g {
			if m.Type == TypeHistogram {
				if err := writeHistogram(w, name, m); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				name, formatLabels(m.Labels), formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram emits the three-series exposition of one histogram
// sample: `name_bucket{le="..."}` lines in ascending bound order ending
// at +Inf, then `name_sum` and `name_count`.
func writeHistogram(w io.Writer, name string, m Metric) error {
	for _, b := range m.Buckets {
		labels := make([]Label, 0, len(m.Labels)+1)
		labels = append(labels, m.Labels...)
		labels = append(labels, L("le", b.LE))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, formatLabels(labels), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, formatLabels(m.Labels), formatValue(m.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		name, formatLabels(m.Labels), m.Count)
	return err
}

// WriteJSON writes the samples as an indented JSON array, in insertion
// order — the machine-readable dump served at /metrics.json.
func (ms *MetricSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ms.metrics)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escapes: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
