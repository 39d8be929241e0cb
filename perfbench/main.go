// Command perfbench is the repository's end-to-end benchmark. One command
// runs one named workload from a seed and prints every metric by name with
// its unit; the last line of standard output is a JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced. With
// --trace 1 the run repeats a fixed unit of work untraced and then traced,
// and reports the per-layer set: spans recorded around the calls this
// benchmark makes into the repository's packages, server counters, and the
// tracing overhead (the difference between the two passes). The spans are
// written to a file when the run ends.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-campaign --seed 1 --seconds 20 --trace 0
//
// Every check that fails marks the result incorrect and makes the command
// exit 1. See perfbench/README.md for the workloads and the layer-to-metric
// table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

// stderrLog receives progress lines.
var stderrLog io.Writer = os.Stderr

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(opt options, rep *report) error{
	"paper-campaign": runPaperCampaign,
	"field-sessions": runFieldSessions,
	"route-cold":     runRouteCold,
	"decide-hot":     runDecideHot,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opt.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>.tsv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stderrLog = stderr
	drive, ok := workloads[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if !(opt.seconds > 0) || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt.trace = traceFlag == 1
	if opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans", opt.workload+".tsv")
	}
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s; gmpd runs in-process on loopback TCP\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	rep := newReport(opt.trace)
	start := time.Now()
	if err := drive(opt, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	rep.set("peak_rss_mb", peakRSSMB())
	res, err := rep.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, v := range rep.violations {
		fmt.Fprintf(stderr, "perfbench: CHECK FAILED: %s\n", v)
	}
	// Every figure measured, by name; the JSON line keeps the mode's set.
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, rep.values[n], unitOf(n))
	}
	fmt.Fprintf(stderr, "perfbench: %s done in %.1fs (attempted %d, failed %d)\n",
		opt.workload, time.Since(start).Seconds(), res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
