package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics is the end-to-end set every workload reports with --trace 0.
// What one "op" is depends on the workload (see README.md). Wall-clock
// throughput and latency are per-layer figures: on a shared host they
// follow the host's load (README.md, "Why CPU time").
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// paperProtocols is routing.PaperSet() at the time the metric list was
// fixed; runPaperCampaign checks that the registry still agrees.
var paperProtocols = []string{"PBM", "LGS", "GMP", "GMPnr", "SMT", "GRD"}

// layerMetrics is the per-layer set every workload reports with --trace 1.
// A layer a workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"setup_wall_s", "s"},
		{"network.build_s", "s"},
		{"planar.build_s", "s"},
		{"view.build_s", "s"},
		{"sim.warmup_s", "s"},
		{"sim.run_s", "s"},
		{"sim.self_s", "s"},
		{"sim.transmissions", "count"},
		{"sim.decisions", "count"},
		{"routing.busy_s", "s"},
		{"routing.wall_s", "s"},
		{"steiner.rrstr_us", "us"},
		{"wire.encode_us", "us"},
		{"wire.decode_us", "us"},
		{"wire.bytes_out_per_req", "bytes"},
		{"wire.bytes_in_per_req", "bytes"},
		{"wire.msgs_in_per_req", "count"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.cache_evictions", "count"},
		{"serve.shed_ratio", "ratio"},
		{"serve.evicted", "count"},
		{"serve.hops_per_route", "count"},
		{"serve.decisions_per_route", "count"},
		{"serve.decide_ms_per_route", "ms"},
		{"serve.non_decide_ms_per_route", "ms"},
		{"loadgen.backlog_max", "count"},
		{"loadgen.late_p99_ms", "ms"},
		{"ops_per_s", "1/s"},
		{"lat_p50_ms", "ms"},
		{"lat_tail_ms", "ms"},
		{"lat_p99_ms_hi", "ms"},
		{"fail_ratio_hi", "ratio"},
		{"lat_samples", "count"},
		{"trace.overhead_pct", "%"},
	}
	for _, p := range paperProtocols {
		defs = append(defs,
			metricDef{"routing." + p + ".busy_s", "s"},
			metricDef{"routing." + p + ".calls", "count"},
			metricDef{"routing." + p + ".us_per_call", "us"})
	}
	return defs
}()

// unitOf returns the unit a metric is reported in.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// report accumulates one run's outcome.
type report struct {
	traced     bool
	values     map[string]float64
	attempted  int64
	failed     int64
	violations []string
}

func newReport(traced bool) *report {
	return &report{traced: traced, values: map[string]float64{}}
}

// set records a metric value; the output keeps only the run mode's set.
func (r *report) set(name string, v float64) { r.values[name] = v }

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// metric is one JSON metric entry.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result assembles the run mode's metric set. An untraced run missing an
// end-to-end metric is a benchmark bug; per-layer metrics a workload does
// not exercise read 0.
func (r *report) result() (result, error) {
	defs := e2eMetrics
	if r.traced {
		defs = layerMetrics
	}
	out := result{Correct: len(r.violations) == 0 && r.attempted > 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.attempted == 0 {
		r.violations = append(r.violations, "no operation was attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// +Inf entries stand for failed requests and sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tail returns the p99 of xs, or for fewer than 1000 samples the highest
// percentile that still has ten samples beyond it (at least the median).
func tail(xs []float64) float64 {
	return quantile(xs, min(0.99, max(0.5, 1-10/float64(len(xs)))))
}

// median returns the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the CPU time the process has used so far, user and system.
// Unlike wall time it does not grow while the host runs someone else.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuUSPerOp is CPU time per operation in microseconds (0 without ops).
func cpuUSPerOp(cpu time.Duration, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(cpu.Nanoseconds()) / 1e3 / float64(ops)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
