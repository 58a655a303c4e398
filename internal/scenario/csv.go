package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/metrics"
)

// CSVer is implemented by experiment results that can emit their raw data
// series as CSV files, for regenerating the paper's plots with external
// tooling. The map key is a short file stem (without extension).
type CSVer interface {
	CSV() map[string]string
}

// dynamicsRows flattens a set of per-protocol observation traces into the
// shared long-form row type, keyed by protocol. Renderers no longer
// re-derive row formatting: the same metrics.LongRow carries the live
// Dumper's output, which is what keeps simulator CSVs and live CSVs one
// schema.
func dynamicsRows(dyn []Dynamics) []metrics.LongRow {
	var rows []metrics.LongRow
	for _, d := range dyn {
		proto := d.Protocol.String()
		for _, m := range dynamicsMetrics {
			for _, o := range d.Observations {
				rows = append(rows, metrics.LongRow{Key: proto, Cycle: o.Cycle, Metric: m.name, Value: m.obs(o)})
			}
		}
	}
	return rows
}

// dynamicsCSV renders a set of per-protocol observation traces in long
// form: protocol,cycle,metric,value.
func dynamicsCSV(dyn []Dynamics) string {
	return metrics.LongCSV("protocol", dynamicsRows(dyn))
}

// CSV implements CSVer.
func (r *Figure2Result) CSV() map[string]string {
	return map[string]string{"figure2_growing": dynamicsCSV(r.Dynamics)}
}

// CSV implements CSVer.
func (r *Figure3Result) CSV() map[string]string {
	return map[string]string{
		"figure3_lattice": dynamicsCSV(r.Lattice),
		"figure3_random":  dynamicsCSV(r.Random),
	}
}

// CSV implements CSVer: one row per (protocol, cycle, degree) with its
// frequency — the exact points of the paper's log-log plots.
func (r *Figure4Result) CSV() map[string]string {
	var b strings.Builder
	b.WriteString("protocol,cycle,degree,count\n")
	for i, proto := range r.Protocols {
		for _, snap := range r.Snapshots[i] {
			for k, deg := range snap.Table.Values {
				fmt.Fprintf(&b, "%s,%d,%d,%d\n", proto, snap.Cycle, deg, snap.Table.Counts[k])
			}
		}
	}
	return map[string]string{"figure4_degree_distributions": b.String()}
}

// CSV implements CSVer: protocol,lag,autocorrelation.
func (r *Figure5Result) CSV() map[string]string {
	var b strings.Builder
	b.WriteString("protocol,lag,autocorrelation\n")
	for _, res := range r.Results {
		for lag, v := range res.Lags {
			fmt.Fprintf(&b, "%s,%d,%.6f\n", res.Protocol, lag, v)
		}
	}
	return map[string]string{"figure5_autocorrelation": b.String()}
}

// CSV implements CSVer: protocol,removed_percent,avg_outside_largest.
func (r *Figure6Result) CSV() map[string]string {
	var b strings.Builder
	b.WriteString("protocol,removed_percent,avg_outside_largest,partitioned_runs\n")
	for _, pr := range r.Protocols {
		for _, pt := range pr.Points {
			fmt.Fprintf(&b, "%s,%d,%.4f,%d\n", pr.Protocol, pt.RemovedPercent, pt.AvgOutsideLargest, pt.PartitionedRuns)
		}
	}
	return map[string]string{"figure6_catastrophic_failure": b.String()}
}

// CSV implements CSVer: protocol,cycles_after_failure,dead_links.
func (r *Figure7Result) CSV() map[string]string {
	var b strings.Builder
	b.WriteString("protocol,cycles_after_failure,dead_links\n")
	for _, pr := range r.Protocols {
		for i, v := range pr.DeadLinks {
			fmt.Fprintf(&b, "%s,%d,%d\n", pr.Protocol, i, v)
		}
	}
	return map[string]string{"figure7_self_healing": b.String()}
}
