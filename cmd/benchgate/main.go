// Command benchgate is the performance-regression gate. It parses `go test
// -bench` output (stdin or a file argument), takes the median of each metric
// across -count repeats, and compares against the baselines recorded in the
// repository's BENCH.json. Two kinds of gates:
//
//   - Allocation gates: any benchmark whose measured allocs/op exceeds its
//     microbenchmark baseline beyond the configured slack fails. Benchmarks
//     absent from the baseline are reported but never fail. Wall-clock
//     (ns/op) is printed for context and never gated — CI time noise would
//     make it flaky.
//   - Speedup gates (the baseline's "speedups" list): the ratio of two
//     benchmarks' custom throughput metrics (hops/s from the sim kernel,
//     decisions/s and routes/s from the serve daemon — all land in the
//     same hops_per_sec baseline slot) must reach min_ratio. A throughput
//     *ratio* measured in one process is robust to machine speed, so it can
//     be gated where absolute ns/op cannot. The gate arms only when the
//     benchmarks ran on more than one CPU (a GOMAXPROCS suffix ≥ 2, e.g.
//     from -cpu 4) — a single CPU cannot exhibit parallel speedup — and
//     skips benchmarks absent from the input, so alloc-only invocations
//     are unaffected.
//
// Usage:
//
//	go test -run '^$' -bench 'Single' -benchtime=200x -count=3 ./... | benchgate
//	go test -run '^$' -bench 'ScaleShards' -benchtime=1x -count=3 -cpu 4 ./internal/experiment/ | benchgate -baseline BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineFile mirrors the schema of the repo's BENCH.json; only the
// microbenchmark metrics and the speedup gates matter to the gate.
type baselineFile struct {
	Description     string               `json:"description"`
	Microbenchmarks map[string]benchLine `json:"microbenchmarks"`
	Speedups        []speedupGate        `json:"speedups"`
}

type benchLine struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HopsPerSec  float64 `json:"hops_per_sec,omitempty"`
	cpus        int
}

// speedupGate requires benchmark Fast's median hops/s to be at least
// MinRatio times benchmark Slow's. Skipped unless both ran on ≥ 2 CPUs.
type speedupGate struct {
	Fast     string  `json:"fast"`
	Slow     string  `json:"slow"`
	MinRatio float64 `json:"min_ratio"`
}

// benchRe matches a `go test -bench` result line with -benchmem metrics, e.g.
//
//	BenchmarkSingleGMPDecision        200    4822 ns/op    512 B/op    4 allocs/op
//
// The -cpu/GOMAXPROCS suffix (-8) is stripped so names match baseline keys;
// its value is kept as the run's CPU count (no suffix = GOMAXPROCS 1).
var benchRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op(.*)$`)

var metricRe = regexp.MustCompile(`(\S+) (B/op|allocs/op|hops/s|decisions/s|routes/s)`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		basePath = fs.String("baseline", "BENCH.json", "baseline file")
		slack    = fs.Float64("slack", 0.10, "fractional headroom over baseline allocs/op before failing")
		absSlack = fs.Float64("abs", 2, "absolute allocs/op headroom, for near-zero baselines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", *basePath, err)
	}
	if len(base.Microbenchmarks) == 0 && len(base.Speedups) == 0 {
		return fmt.Errorf("%s: no microbenchmarks or speedup gates", *basePath)
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark result lines in input")
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "%-34s %14s %14s %9s\n", "benchmark (median allocs/op)", "baseline", "measured", "delta")
	for _, name := range names {
		cur := median(got[name])
		want, ok := base.Microbenchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14s %14.0f %9s\n", name, "-", cur.AllocsPerOp, "new")
			continue
		}
		limit := want.AllocsPerOp*(1+*slack) + *absSlack
		status := "ok"
		if cur.AllocsPerOp > limit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f allocs/op exceeds baseline %.0f (limit %.1f)",
				name, cur.AllocsPerOp, want.AllocsPerOp, limit))
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %+8.1f%% %s\n",
			name, want.AllocsPerOp, cur.AllocsPerOp, delta(want.AllocsPerOp, cur.AllocsPerOp), status)
		fmt.Fprintf(w, "%-34s %12.0f B %12.0f B   (ns/op %.0f → %.0f, not gated)\n",
			"", want.BytesPerOp, cur.BytesPerOp, want.NsPerOp, cur.NsPerOp)
	}
	for _, g := range base.Speedups {
		fastRuns, okF := got[g.Fast]
		slowRuns, okS := got[g.Slow]
		if !okF || !okS {
			fmt.Fprintf(w, "speedup %s / %s: skipped (benchmarks not in input)\n", g.Fast, g.Slow)
			continue
		}
		fast, slow := median(fastRuns), median(slowRuns)
		if fast.cpus < 2 {
			fmt.Fprintf(w, "speedup %s / %s: skipped (single-CPU run cannot show parallel speedup)\n",
				g.Fast, g.Slow)
			continue
		}
		if slow.HopsPerSec <= 0 {
			failures = append(failures, fmt.Sprintf(
				"%s reported no hops/s to ratio against", g.Slow))
			continue
		}
		ratio := fast.HopsPerSec / slow.HopsPerSec
		status := "ok"
		if ratio < g.MinRatio {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s/%s speedup %.2fx below required %.2fx (%.0f vs %.0f hops/s)",
				g.Fast, g.Slow, ratio, g.MinRatio, fast.HopsPerSec, slow.HopsPerSec))
		}
		fmt.Fprintf(w, "speedup %s / %s: %.2fx (need %.2fx, %.0f vs %.0f hops/s) %s\n",
			g.Fast, g.Slow, ratio, g.MinRatio, fast.HopsPerSec, slow.HopsPerSec, status)
	}
	w.Flush()
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// parseBench collects every -benchmem result line by benchmark name; repeated
// -count runs accumulate so the caller can take medians.
func parseBench(r io.Reader) (map[string][]benchLine, error) {
	out := make(map[string][]benchLine)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		line := benchLine{NsPerOp: ns, cpus: 1}
		if m[2] != "" {
			if c, err := strconv.Atoi(m[2]); err == nil {
				line.cpus = c
			}
		}
		for _, mm := range metricRe.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			switch mm[2] {
			case "B/op":
				line.BytesPerOp = v
			case "allocs/op":
				line.AllocsPerOp = v
			case "hops/s", "decisions/s", "routes/s":
				// All are "useful work per second" metrics; they share the
				// baseline's hops_per_sec slot (no benchmark reports two).
				line.HopsPerSec = v
			}
		}
		out[m[1]] = append(out[m[1]], line)
	}
	return out, sc.Err()
}

// median reduces repeated runs of one benchmark to per-metric medians, so a
// single noisy -count repeat cannot fail (or sneak past) the gate.
func median(runs []benchLine) benchLine {
	pick := func(get func(benchLine) float64) float64 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = get(r)
		}
		sort.Float64s(vs)
		if n := len(vs); n%2 == 1 {
			return vs[n/2]
		} else {
			return (vs[n/2-1] + vs[n/2]) / 2
		}
	}
	cpus := 0
	for _, r := range runs {
		if r.cpus > cpus {
			cpus = r.cpus
		}
	}
	return benchLine{
		NsPerOp:     pick(func(l benchLine) float64 { return l.NsPerOp }),
		BytesPerOp:  pick(func(l benchLine) float64 { return l.BytesPerOp }),
		AllocsPerOp: pick(func(l benchLine) float64 { return l.AllocsPerOp }),
		HopsPerSec:  pick(func(l benchLine) float64 { return l.HopsPerSec }),
		cpus:        cpus,
	}
}

func delta(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur/base - 1) * 100
}
