package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric the benchmark reports; BENCHMARK.json lists
// the same names and units.
type metricSpec struct {
	name, unit string
}

// endToEnd is reported by every untraced run. Costs are CPU time scaled to
// a reference host speed (see calib.go), which stays steady on a shared
// host where wall-clock figures follow the neighbours' load; the
// wall-clock figures are per-layer metrics instead.
var endToEnd = []metricSpec{
	{"cpu_us_per_decision", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by every traced run. A layer the workload does not
// exercise reads 0.
var perLayer = []metricSpec{
	{"wall.decisions_per_s", "1/s"},
	{"wall.batch_p50_us", "us"},
	{"wall.batch_p99_us", "us"},
	{"wall.open_p50_us", "us"},
	{"wall.open_p99_us", "us"},
	{"wall.update_p50_us", "us"},
	{"wall.update_p99_us", "us"},
	{"wall.setup_s", "s"},
	{"wall.sim_s", "s"},
	{"host.steal_ratio", "ratio"},
	{"host.cpu_scale", "ratio"},
	{"client.enqueue_p50_us", "us"},
	{"client.enqueue_p99_us", "us"},
	{"client.reply_p50_us", "us"},
	{"client.rejects", "count"},
	{"client.resets", "count"},
	{"server.wire_p50_us", "us"},
	{"server.ring_wait_p50_us", "us"},
	{"server.ring_wait_p99_us", "us"},
	{"server.frames", "count"},
	{"server.rejects", "count"},
	{"server.table_ops", "count"},
	{"server.useful_ratio", "ratio"},
	{"engine.decide_p50_us", "us"},
	{"engine.decide_p99_us", "us"},
	{"engine.decide_share", "ratio"},
	{"engine.ns_per_decision", "ns"},
	{"engine.write_p50_us", "us"},
	{"engine.write_p99_us", "us"},
	{"engine.epoch_wait_spins", "count"},
	{"engine.failover_decisions", "count"},
	{"engine.failed_decisions", "count"},
	{"policy.exec_ns", "ns"},
	{"policy.steps", "count"},
	{"filter.ufpu_min_ns", "ns"},
	{"filter.ufpu_topk_ns", "ns"},
	{"filter.ufpu_pred_ns", "ns"},
	{"filter.ufpu_pred_rebuild_ns", "ns"},
	{"filter.ufpu_random_ns", "ns"},
	{"filter.bfpu_ns", "ns"},
	{"filter.in_popcount", "count"},
	{"smbm.update_ns", "ns"},
	{"smbm.update_batch_ns_per_op", "ns"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"netsim.serial_wall_s", "s"},
	{"netsim.speedup", "ratio"},
	{"netsim.windows", "count"},
	{"netsim.wall_us_per_window", "us"},
	{"netsim.pkts_sent", "count"},
	{"netsim.drops", "count"},
	{"netsim.retx", "count"},
	{"netsim.goodput_ratio", "ratio"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"run.error_rate", "ratio"},
}

// figures collects a run's metrics. A ratio also records its base, the
// denominator it was taken against, for the per-layer table.
type figures struct {
	vals  map[string]float64
	bases map[string]string
}

func newFigures() *figures {
	return &figures{vals: map[string]float64{}, bases: map[string]string{}}
}

func (f *figures) set(name string, v float64) { f.vals[name] = v }

func (f *figures) ratio(name string, num, den float64, base string) {
	if den != 0 {
		f.vals[name] = num / den
	}
	f.bases[name] = base
}

// report renders the named metric set; missing values read 0.
func (f *figures) report(specs []metricSpec) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: f.vals[s.name], Unit: s.unit}
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func usNs(a, b int64) float64 { return float64(b-a) / 1e3 }
