package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// Labels is an ordered label set ([name, value] pairs). Order is preserved
// in the exposition so output is deterministic and golden-pinnable.
type Labels [][2]string

// family is one metric family: HELP/TYPE header plus its sample lines in
// append order.
type family struct {
	name  string
	help  string
	kind  string // "counter" | "gauge" | "histogram"
	lines []string
}

// Prom accumulates metric samples and renders them in the Prometheus text
// exposition format (version 0.0.4). Samples of the same family are
// grouped under one HELP/TYPE header regardless of append order, so
// per-model emitters can interleave freely. Not safe for concurrent use:
// build one Prom per scrape.
type Prom struct {
	order  []string
	byName map[string]*family
}

// NewProm returns an empty builder.
func NewProm() *Prom {
	return &Prom{byName: make(map[string]*family)}
}

// ContentType is the scrape response Content-Type for the text format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func (p *Prom) fam(name, help, kind string) *family {
	f := p.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		p.byName[name] = f
		p.order = append(p.order, name)
	}
	return f
}

// Counter appends one counter sample.
func (p *Prom) Counter(name, help string, labels Labels, v float64) {
	f := p.fam(name, help, "counter")
	f.lines = append(f.lines, sampleLine(name, "", labels, v))
}

// Gauge appends one gauge sample.
func (p *Prom) Gauge(name, help string, labels Labels, v float64) {
	f := p.fam(name, help, "gauge")
	f.lines = append(f.lines, sampleLine(name, "", labels, v))
}

// Histogram appends one histogram series: per-bucket (non-cumulative)
// counts aligned with upper bounds, rendered as cumulative le= buckets
// plus the +Inf bucket, _sum and _count. Observations above the last
// bound land in +Inf only (count is authoritative, not the bucket sum).
func (p *Prom) Histogram(name, help string, labels Labels, bounds []float64, counts []int64, sum float64, count int64) {
	f := p.fam(name, help, "histogram")
	var cum int64
	for i, b := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		le := append(append(Labels{}, labels...), [2]string{"le", formatValue(b)})
		f.lines = append(f.lines, sampleLine(name, "_bucket", le, float64(cum)))
	}
	inf := append(append(Labels{}, labels...), [2]string{"le", "+Inf"})
	f.lines = append(f.lines, sampleLine(name, "_bucket", inf, float64(count)))
	f.lines = append(f.lines, sampleLine(name, "_sum", labels, sum))
	f.lines = append(f.lines, sampleLine(name, "_count", labels, float64(count)))
}

// WriteTo renders the accumulated families in first-touch order.
func (p *Prom) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, name := range p.order {
		f := p.byName[name]
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind)
		b.WriteByte('\n')
		for _, ln := range f.lines {
			b.WriteString(ln)
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the exposition as a string (tests, goldens).
func (p *Prom) String() string {
	var b strings.Builder
	p.WriteTo(&b)
	return b.String()
}

// sampleLine renders `name_suffix{labels} value`.
func sampleLine(name, suffix string, labels Labels, v float64) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(kv[0])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(kv[1]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects:
// shortest-round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash,
// double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
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

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// BoolGauge is the gauge value of a flag: 1 for true, 0 for false.
func BoolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
