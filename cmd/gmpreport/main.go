// Command gmpreport runs the full reproduction campaign and writes a
// self-contained HTML report with charts of every figure: the shareable
// artifact of a reproduction run. Every chart comes from an entry of the
// experiment catalog (internal/experiment), run exactly as gmpsim runs it.
//
// Usage:
//
//	gmpreport -o report.html                 # full Table 1 campaign (minutes)
//	gmpreport -quick -o report.html          # scaled-down smoke campaign
//	gmpreport -quick -extensions -o r.html   # plus E-X1, E-X2, E-X3, E-X5, E-X6, E-X7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gmp/internal/experiment"
	"gmp/internal/report"
)

// sections lists the catalog entries the report charts, in report order,
// with one caption per table each entry prints. Extension sections run only
// under -extensions. Each entry runs once: "all" carries Figures 11, 12, 14
// and 15 from one main campaign.
var sections = []struct {
	entry     string
	extension bool
	captions  []string
}{
	{"all", false, []string{
		"Paper claim: GMP lowest; reduction vs PBM and LGS up to 25%.",
		"Paper claim: PBM ≈ GMP ≈ SMT close to GRD; LGS clearly worse.",
		"Paper claim: energy mirrors total hops; GMP saves ~25% vs PBM/LGS.",
		"Fraction of tasks that missed at least one destination (ideal MAC: near zero at Table 1 density).",
		"Paper claim: failures rise as density falls; LGS worst, GMP best. " +
			"Densities below the paper's 400-node floor exercise the geometric-void regime (ideal MAC).",
	}},
	{"lambda", false, []string{
		"PBM's λ trade-off (§5.1): larger λ merges copies at the cost of per-destination progress.",
	}},
	{"robustness", true, []string{
		"E-X1: random radio failures; stateless protocols degrade gracefully.",
	}},
	{"localization", true, []string{
		"E-X2: GPS error on reported positions; physics truthful.",
		"E-X2: detour cost of misjudged progress.",
	}},
	{"staleness", true, []string{
		"E-X3: destination coordinates stale under random-waypoint mobility.",
	}},
	{"load", true, []string{
		"E-X5: delivery latency under concurrent sessions (half-duplex senders).",
	}},
	{"beaconing", true, []string{
		"E-X6: neighbor-table position error vs beacon period.",
		"E-X6: neighbors missing from the table vs beacon period.",
		"E-X6: the control-plane energy that buys it.",
	}},
	{"clustering", true, []string{
		"E-X7: multicast's advantage grows as destinations cluster.",
	}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gmpreport", flag.ContinueOnError)
	var (
		out        = fs.String("o", "report.html", "output HTML file (- for stdout)")
		quick      = fs.Bool("quick", false, "scaled-down campaign")
		seed       = fs.Int64("seed", 0, "override campaign seed")
		extensions = fs.Bool("extensions", false, "include the E-X1, E-X2, E-X3, E-X5, E-X6 and E-X7 extensions (slower)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	req := experiment.NewRequest(*quick)
	if *seed != 0 {
		req.Config.Seed = *seed
	}
	req.Seed = *seed
	cfg := req.Config

	rep := report.New(
		"GMP reproduction report",
		fmt.Sprintf("Wu & Candan, ICDCS 2006 — %d nodes, %d networks × %d tasks, seed %d",
			cfg.Nodes, cfg.Networks, cfg.TasksPerNet, cfg.Seed),
	)
	for _, s := range sections {
		if s.extension && !*extensions {
			continue
		}
		e, ok := experiment.Lookup(s.entry)
		if !ok {
			return fmt.Errorf("no catalog experiment %q", s.entry)
		}
		res, err := e.Run(req)
		if err != nil {
			return err
		}
		if len(res.Tables) != len(s.captions) {
			return fmt.Errorf("%s printed %d tables for %d captions", s.entry, len(res.Tables), len(s.captions))
		}
		for i, t := range res.Tables {
			rep.Add(t, s.captions[i])
		}
	}

	html := rep.HTML(time.Now())
	if *out == "-" {
		_, err := io.WriteString(stdout, html)
		return err
	}
	if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d sections)\n", *out, rep.Len())
	return nil
}
