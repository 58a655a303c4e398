package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"peersampling/internal/transport"
)

// The Prometheus text exposition format, hand-rolled: one HELP/TYPE pair
// per metric family followed by one sample per node, all families emitted
// for every scrape. No client library is involved — the format is three
// line shapes and an escaping rule.

// WritePrometheus renders the snapshots in the Prometheus text exposition
// format: per family a HELP and TYPE line, then one labelled sample per
// node. A family no snapshot carries is omitted.
func WritePrometheus(w io.Writer, snaps []NodeSnapshot) error {
	var b strings.Builder
	for _, f := range fields {
		if f.prom == "" {
			continue
		}
		typ := "gauge"
		if f.counter {
			typ = "counter"
		}
		wrote := false
		for _, s := range snaps {
			v, ok := f.get(s)
			if !ok {
				continue
			}
			if !wrote {
				fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.prom, f.help, f.prom, typ)
				wrote = true
			}
			fmt.Fprintf(&b, "%s{%s} %s\n", f.prom, labels(s), formatValue(v))
		}
	}
	for _, h := range histograms {
		writeHistogram(&b, snaps, h)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labels renders a sample's node and addr labels. Both may come from a
// remote /snapshot body, so they pass through escapeLabel.
func labels(s NodeSnapshot) string {
	return `node="` + escapeLabel(s.Node) + `",addr="` + escapeLabel(s.Addr) + `"`
}

// labelEscaper applies the exposition format's label-value escapes,
// which are exactly these three; every other byte is written as is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel makes v a valid label value: UTF-8, with backslash, double
// quote and newline escaped.
func escapeLabel(v string) string {
	return labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD"))
}

// writeHistogram renders one latency-histogram family for every node
// that carries it, in the native Prometheus histogram shape: cumulative
// le-labelled buckets, _sum and _count.
func writeHistogram(b *strings.Builder, snaps []NodeSnapshot, h histogram) {
	wrote := false
	for _, s := range snaps {
		lat := h.get(s)
		if lat == nil {
			continue
		}
		if !wrote {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", h.prom, h.help, h.prom)
			wrote = true
		}
		l := labels(s)
		cum := lat.Cumulative()
		for i, bound := range transport.LatencyBounds {
			var c uint64
			if i < len(cum) {
				c = cum[i]
			}
			fmt.Fprintf(b, "%s_bucket{%s,le=\"%s\"} %d\n", h.prom, l, formatValue(bound), c)
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", h.prom, l, lat.Count)
		fmt.Fprintf(b, "%s_sum{%s} %s\n", h.prom, l, formatValue(lat.SumSeconds))
		fmt.Fprintf(b, "%s_count{%s} %d\n", h.prom, l, lat.Count)
	}
}

// WritePrometheus takes one snapshot round and renders it; the Server's
// /metrics handler is exactly this.
func (c *Collector) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, c.Snapshot())
}

// formatValue renders integers without an exponent and everything else in
// shortest-round-trip form, matching what scrapers expect.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
