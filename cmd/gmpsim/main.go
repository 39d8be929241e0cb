package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"gmp/internal/experiment"
	"gmp/internal/profiling"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmpsim", flag.ContinueOnError)
	var (
		exp      = fs.String("experiment", "all", "experiment to run, one of:"+catalogLines("\n  %-13s %s"))
		quick    = fs.Bool("quick", false, "scaled-down campaign for smoke runs")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = fs.Bool("json", false, "emit JSON instead of aligned tables")
		seed     = fs.Int64("seed", 0, "override campaign seed (0 = config default)")
		nodes    = fs.Int("nodes", 0, "override node count (0 = config default)")
		networks = fs.Int("networks", 0, "override number of deployments")
		tasks    = fs.Int("tasks", 0, "override tasks per deployment")
		ks       = fs.String("ks", "", "override destination-count sweep, e.g. 3,5,10")
		protos   = fs.String("protocols", "", "comma-separated protocol list replacing the experiment's default (registered: "+
			strings.Join(routing.Names(), ",")+")")
		confPath = fs.String("config", "", "JSON campaign config file (see -dumpconfig for the schema)")
		dumpConf = fs.Bool("dumpconfig", false, "print the effective campaign config as JSON and exit")
		pair     = fs.String("pair", "GMP,LGS", "for -experiment compare: the two protocols, A,B")
		kFlag    = fs.Int("k", 12, "for -experiment compare: destination count")
		outDir   = fs.String("outdir", "", "also write each table as <outdir>/<slug>.json and .csv")
		loss     = fs.Float64("loss", 0, "inject uniform per-link loss with this probability (experiments that build engines from the campaign config)")
		edgeLoss = fs.Float64("edgeloss", 0, "inject distance-dependent loss: this probability at full radio range, scaled (d/R)^2")
		crash    = fs.Float64("crash", 0, "crash this fraction of nodes at random times early in each task")
		arq      = fs.Bool("arq", false, "enable hop-by-hop ARQ (ACKs + retransmissions)")
		workers  = fs.Int("workers", 0, "max concurrent simulation cells (0 = one per CPU); output is identical for any value")
		shards   = fs.Int("shards", 0, "for -experiment scale: sharded-kernel worker count (0 = one per CPU); deterministic output is identical for any value")
		progress = fs.Bool("progress", false, "render a live cells-completed counter on stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = fs.String("trace", "", "write a runtime execution trace to this file")
		pprofSrv = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live inspection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuProf, MemProfile: *memProf,
		Trace: *traceOut, PprofAddr: *pprofSrv, Name: "gmpsim"})
	if err != nil {
		return err
	}
	defer stopProf()

	// SIGINT/SIGTERM cancel the campaign between cells: the runner stops
	// handing out work, in-flight cells finish, and the run exits with the
	// context's error instead of an interrupted half-written table.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	req := experiment.NewRequest(*quick)
	cfg := &req.Config
	if *confPath != "" {
		data, err := os.ReadFile(*confPath)
		if err != nil {
			return fmt.Errorf("-config: %w", err)
		}
		if err := json.Unmarshal(data, cfg); err != nil {
			return fmt.Errorf("-config %s: %w", *confPath, err)
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	req.Seed = *seed
	if *nodes != 0 {
		cfg.Nodes = *nodes
	}
	if *networks != 0 {
		cfg.Networks = *networks
	}
	if *tasks != 0 {
		cfg.TasksPerNet = *tasks
	}
	if *ks != "" {
		parsed, err := parseInts(*ks)
		if err != nil {
			return fmt.Errorf("-ks: %w", err)
		}
		cfg.Ks = parsed
	}
	// Nonzero values pass through even when negative, so validation can
	// reject them instead of the flag being silently ignored.
	if *loss != 0 {
		cfg.Faults.LossRate = *loss
	}
	if *edgeLoss != 0 {
		cfg.Faults.EdgeLoss = *edgeLoss
	}
	if *crash != 0 {
		cfg.CrashFraction = *crash
	}
	if *arq {
		cfg.ARQ = sim.DefaultARQ()
	}
	if *workers != 0 {
		cfg.Workers = *workers
	}
	if *progress {
		cfg.Progress = progressPrinter(os.Stderr)
	}
	cfg.Ctx = ctx
	if *protos != "" {
		req.Protos = strings.Split(*protos, ",")
	}
	req.Shards, req.Pair, req.K = *shards, *pair, *kFlag
	if *dumpConf {
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}

	e, ok := experiment.Lookup(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	res, err := e.Run(req)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Text)
	for _, t := range res.Tables {
		switch {
		case *jsonOut:
			data, err := json.Marshal(t)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(data))
		case *csv:
			fmt.Fprint(out, t.CSV())
		default:
			fmt.Fprintln(out, t.Render())
		}
		if *outDir != "" {
			if err := writeArtifacts(*outDir, t); err != nil {
				return fmt.Errorf("-outdir: %w", err)
			}
		}
	}
	if res.Violations > 0 {
		return fmt.Errorf("%s: %d invariant violations", e.Name, res.Violations)
	}
	return nil
}

// catalogLines formats one line per catalog experiment from a format
// taking its name and summary: the -experiment usage and the package
// doc's usage block both list the catalog through it.
func catalogLines(format string) string {
	var b strings.Builder
	for _, e := range experiment.Catalog() {
		fmt.Fprintf(&b, format, e.Name, e.Summary)
	}
	return b.String()
}

// progressPrinter renders a live "done/total cells" counter on w, ending
// the line when the campaign completes. The runner serializes calls.
func progressPrinter(w io.Writer) experiment.ProgressFunc {
	return func(done, total int) {
		fmt.Fprintf(w, "\r%d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}

// writeArtifacts saves a table as both JSON and CSV under dir, named by a
// slug of its title.
func writeArtifacts(dir string, t *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := slugify(t.Title)
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, slug+".json"), data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, slug+".csv"), []byte(t.CSV()), 0o644)
}

// slugify reduces a table title to a safe file stem.
func slugify(title string) string {
	var b strings.Builder
	lastDash := false
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && b.Len() > 0 {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
