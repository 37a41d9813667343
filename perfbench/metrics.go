package main

import (
	"fmt"
	"strings"
)

// metricDef is one metric of the result line. BENCHMARK.json lists the
// same names, units and directions; TestBenchmarkJSONListsEveryMetric
// keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, reported for every
// workload. README.md gives each one's definition.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mbit_per_s", "Mbit/s", "higher"},
	{"cpu_ns_per_bit", "ns/bit", "lower"},
	{"compress_ns_per_bit", "ns/bit", "lower"},
	{"decompress_ns_per_bit", "ns/bit", "lower"},
	{"compress_latency_ms", "ms", "lower"},
	{"decompress_latency_ms", "ms", "lower"},
	{"ratio_pct", "%", "higher"},
	{"alloc_bytes_per_bit", "B/bit", "lower"},
	{"live_heap_floor_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reads 0 there (README.md lists where each applies).
var perLayer = []metricDef{
	{"bitvec.parse_ns_per_bit", "ns/bit", "lower"},
	{"bitvec.parse_alloc_bytes_per_call", "B/call", "lower"},
	{"bitvec.serialize_ns_per_bit", "ns/bit", "lower"},
	{"bitvec.deserialize_ns_per_bit", "ns/bit", "lower"},
	{"bitvec.render_ns_per_bit", "ns/bit", "lower"},
	{"bitvec.alloc_bytes_per_bit", "B/bit", "lower"},
	{"core.match_loop_ns_per_char", "ns/char", "lower"},
	{"core.decode_ns_per_char", "ns/char", "lower"},
	{"core.chars", "count", "lower"},
	{"core.codes", "count", "lower"},
	{"core.string_code_share", "share", "higher"},
	{"core.dynamic_fill_share", "share", "higher"},
	{"core.dict_resets", "count", "lower"},
	{"core.train_ms", "ms", "lower"},
	{"wire.encode_ns_per_code", "ns/code", "lower"},
	{"wire.decode_ns_per_code", "ns/code", "lower"},
	{"wire.container_bytes", "B", "lower"},
	{"parallel.shards_per_op", "count", "lower"},
	{"parallel.job_ms", "ms", "lower"},
	{"parallel.busy_share", "share", "higher"},
	{"server.compress_self_ms", "ms", "lower"},
	{"server.decompress_self_ms", "ms", "lower"},
	{"client.transport_ms", "ms", "lower"},
	{"client.retries", "count", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.poll_lag_ms", "ms", "lower"},
	{"jobs.polls_per_op", "count", "lower"},
	{"dictstore.hit_share", "share", "higher"},
	{"dictstore.resolve_ms", "ms", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"host.steal_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.coverage_share", "share", "higher"},
}

// metricSet collects one result line's metrics against their
// definitions.
type metricSet struct {
	defs []metricDef
	host float64 // host index: this run's calibration time ÷ the pinned reference
	m    map[string]metric
}

func newMetricSet(defs []metricDef, host float64) metricSet {
	return metricSet{defs: defs, host: host, m: make(map[string]metric, len(defs))}
}

// put records a metric as the wall clock read it; its unit comes from
// the definition. A time is divided by the host index and a rate
// multiplied by it, so the figure is what the reference host would
// have read.
func (s metricSet) put(name string, v float64) {
	for _, d := range s.defs {
		if d.name != name {
			continue
		}
		switch {
		case d.unit == "Mbit/s":
			v *= s.host
		case d.unit == "s" || d.unit == "ms" || strings.HasPrefix(d.unit, "ns/"):
			v /= s.host
		}
		s.m[name] = metric{Value: v, Unit: d.unit}
		return
	}
	panic(fmt.Sprintf("perfbench: metric %q is not defined", name))
}

// complete returns the metrics once every definition has a value.
func (s metricSet) complete() (map[string]metric, error) {
	for _, d := range s.defs {
		if _, ok := s.m[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return s.m, nil
}
