package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmp/internal/experiment"
	"gmp/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current output")

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestSetupExperiment(t *testing.T) {
	out := runCapture(t, "-experiment", "setup")
	for _, want := range []string{
		"Table 1", "1000m x 1000m", "1.3 W", "0.9 W", "128 B", "150 m", "10 x 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("setup output missing %q:\n%s", want, out)
		}
	}
}

func TestTotalHopsQuick(t *testing.T) {
	out := runCapture(t, "-experiment", "totalhops", "-quick",
		"-networks", "1", "-tasks", "3", "-ks", "4",
		"-protocols", "GMP,GRD")
	for _, want := range []string{"Figure 11", "GMP", "GRD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	out := runCapture(t, "-experiment", "perdest", "-quick",
		"-networks", "1", "-tasks", "3", "-ks", "4",
		"-protocols", "GMP", "-csv")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "k,GMP" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
}

func TestJSONOutput(t *testing.T) {
	out := runCapture(t, "-experiment", "perdest", "-quick",
		"-networks", "1", "-tasks", "3", "-ks", "4",
		"-protocols", "GMP", "-json")
	if !strings.HasPrefix(strings.TrimSpace(out), "{") ||
		!strings.Contains(out, `"series"`) || !strings.Contains(out, `"GMP"`) {
		t.Fatalf("not JSON: %s", out)
	}
}

func TestLambdaQuick(t *testing.T) {
	out := runCapture(t, "-experiment", "lambda", "-quick",
		"-networks", "1", "-tasks", "2", "-ks", "4")
	if !strings.Contains(out, "λ") && !strings.Contains(out, "lambda") {
		t.Fatalf("lambda table missing:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "wat"}, &b); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestBadProtocol(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-experiment", "totalhops", "-quick", "-protocols", "NOPE"}, &b)
	if err == nil {
		t.Fatal("bad protocol should error")
	}
}

func TestBadKs(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "totalhops", "-ks", "3,x"}, &b); err == nil {
		t.Fatal("bad -ks should error")
	}
}

func TestDumpAndLoadConfig(t *testing.T) {
	dumped := runCapture(t, "-dumpconfig", "-quick")
	if !strings.Contains(dumped, `"Nodes"`) || !strings.Contains(dumped, `"Ks"`) {
		t.Fatalf("dump missing fields:\n%s", dumped)
	}
	// Round-trip: feed the dump back as a config file and run a tiny sweep.
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(dumped), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCapture(t, "-config", path, "-experiment", "totalhops",
		"-networks", "1", "-tasks", "2", "-ks", "3", "-protocols", "GMP")
	if !strings.Contains(out, "Figure 11") {
		t.Fatalf("config-driven run broken:\n%s", out)
	}
	// Bad files error cleanly.
	var b strings.Builder
	if err := run([]string{"-config", "/nonexistent.json"}, &b); err == nil {
		t.Fatal("missing config should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", bad}, &b); err == nil {
		t.Fatal("malformed config should error")
	}
}

func TestOutDirArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	runCapture(t, "-experiment", "totalhops", "-quick",
		"-networks", "1", "-tasks", "2", "-ks", "4",
		"-protocols", "GMP", "-outdir", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var json, csv bool
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			json = true
		}
		if strings.HasSuffix(e.Name(), ".csv") {
			csv = true
		}
	}
	if !json || !csv {
		t.Fatalf("artifacts missing: %v", entries)
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Figure 11: total number of hops": "figure-11-total-number-of-hops",
		"  weird---title!!":               "weird-title",
		"λλλ":                             "",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareExperimentCLI(t *testing.T) {
	out := runCapture(t, "-experiment", "compare", "-quick",
		"-networks", "1", "-tasks", "4", "-pair", "GMP,GRD", "-k", "4")
	if !strings.Contains(out, "GMP vs GRD") || !strings.Contains(out, "total hops:") {
		t.Fatalf("compare output:\n%s", out)
	}
	var b strings.Builder
	if err := run([]string{"-experiment", "compare", "-pair", "JUSTONE"}, &b); err == nil {
		t.Fatal("malformed -pair should error")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 3, 5 ,25")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[2] != 25 {
		t.Fatalf("parseInts = %v", got)
	}
}

func TestLossExperimentQuick(t *testing.T) {
	out := runCapture(t, "-experiment", "loss", "-quick")
	for _, want := range []string{
		"Figure 15 under loss", "loss rate", "GMP", "GMP+arq",
		"mean transmissions/task", "mean energy/task (J)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("loss output missing %q:\n%s", want, out)
		}
	}
}

func TestFaultFlagsOnMainExperiment(t *testing.T) {
	out := runCapture(t, "-experiment", "totalhops", "-quick",
		"-networks", "1", "-tasks", "2", "-ks", "4",
		"-protocols", "GMP", "-loss", "0.2", "-crash", "0.05", "-arq")
	if !strings.Contains(out, "Figure 11") {
		t.Fatalf("missing table:\n%s", out)
	}
}

func TestBadLossFlagRejected(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-experiment", "totalhops", "-quick",
		"-networks", "1", "-tasks", "2", "-ks", "4",
		"-protocols", "GMP", "-loss", "1.5"}, &b)
	if err == nil {
		t.Fatal("loss rate above 1 should error")
	}
}

func TestNegativeFaultFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-loss", "-0.1"}, {"-edgeloss", "-0.2"}, {"-crash", "-0.3"},
	} {
		var b strings.Builder
		full := append([]string{"-experiment", "totalhops", "-quick",
			"-networks", "1", "-tasks", "2", "-ks", "4", "-protocols", "GMP"}, args...)
		if err := run(full, &b); err == nil {
			t.Fatalf("%v should error", args)
		}
	}
}

func TestWorkersFlagDeterminism(t *testing.T) {
	base := []string{"-experiment", "totalhops", "-quick",
		"-networks", "2", "-tasks", "2", "-ks", "4", "-protocols", "GMP"}
	serial := runCapture(t, append([]string{"-workers", "1"}, base...)...)
	pooled := runCapture(t, append([]string{"-workers", "6"}, base...)...)
	if serial != pooled {
		t.Fatalf("-workers changed output:\n1 worker:\n%s\n6 workers:\n%s", serial, pooled)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-experiment", "totalhops", "-quick", "-workers", "-2",
		"-networks", "1", "-tasks", "2", "-ks", "4", "-protocols", "GMP"}, &b)
	if err == nil {
		t.Fatal("negative -workers should error")
	}
}

func TestProgressPrinter(t *testing.T) {
	var b strings.Builder
	p := progressPrinter(&b)
	p(1, 2)
	p(2, 2)
	if got := b.String(); got != "\r1/2 cells\r2/2 cells\n" {
		t.Fatalf("progress output %q", got)
	}
}

func TestChurnQuick(t *testing.T) {
	out := runCapture(t, "-experiment", "churn", "-quick", "-protocols", "GMP,LGS")
	for _, want := range []string{"E-X11", "joins spliced", "PASS (0 violations)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestScaleQuick(t *testing.T) {
	// Two shard counts through the CLI: both must pass the oracle, and the
	// deterministic columns (everything up to the timing fields) must agree.
	one := runCapture(t, "-experiment", "scale", "-quick", "-shards", "1")
	four := runCapture(t, "-experiment", "scale", "-quick", "-shards", "4")
	for _, out := range []string{one, four} {
		for _, want := range []string{"E-X10", "GMP+f", "hops/s", "PASS (0 violations)"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q:\n%s", want, out)
			}
		}
	}
	deterministic := func(out string) string {
		var s string
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) == 10 && f[0] != "nodes" {
				s += strings.Join(f[:6], " ") + "\n" // nodes proto tiles deliv/dests tx energy
			}
		}
		return s
	}
	if d1, d4 := deterministic(one), deterministic(four); d1 == "" || d1 != d4 {
		t.Fatalf("deterministic columns diverged:\n-shards 1:\n%s\n-shards 4:\n%s", d1, d4)
	}
}

func TestNegativeShardsRejected(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-experiment", "scale", "-quick", "-shards", "-3"}, &b)
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("err = %v, want shard-count validation error", err)
	}
}

// TestQuickExperimentGoldens pins every catalog experiment whose output is
// a pure function of its configuration: each run must match
// testdata/<experiment>_quick.golden byte for byte, and a missing golden is
// a failure. Entries marked WallClock (scale, serve, stream) print
// wall-clock columns and keep their own oracles instead. Regenerate with
// `go test ./cmd/gmpsim -run TestQuickExperimentGoldens -update`.
func TestQuickExperimentGoldens(t *testing.T) {
	for _, e := range experiment.Catalog() {
		if e.WallClock {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			got := runCapture(t, "-experiment", e.Name, "-quick")
			testutil.Golden(t, filepath.Join("testdata", e.Name+"_quick.golden"), got, *update)
		})
	}
}

// TestPackageDocListsCatalog keeps the package doc's usage block generated
// from the catalog: one line per entry, in catalog order. -update rewrites
// the block in doc.go.
func TestPackageDocListsCatalog(t *testing.T) {
	const open, closing = "// Usage:\n//\n", "//\n// The -quick flag"
	data, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	i, j := strings.Index(doc, open), strings.Index(doc, closing)
	if i < 0 || j < i {
		t.Fatalf("doc.go lost its usage block markers %q ... %q", open, closing)
	}
	i += len(open)
	want := catalogLines("//\tgmpsim -experiment %-13s # %s\n")
	if *update {
		if err := os.WriteFile("doc.go", []byte(doc[:i]+want+doc[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := doc[i:j]; got != want {
		t.Fatalf("doc.go usage block is stale (rerun with -update):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunFlagsActOrAreRefused: a fault, protocol, size, sweep, shard or
// compare flag either changes the chosen experiment's output or is refused
// with an error naming the flag and the experiment — never silently
// dropped. Each size, sweep and compare flag is refused by one entry that
// ignores it and acts on one that reads it.
func TestRunFlagsActOrAreRefused(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
		refuse string // flag named in the expected refusal; "" = must act
	}{
		{[]string{"-experiment", "failures", "-quick", "-loss", "0.3", "-arq"}, "failures", ""},
		{[]string{"-experiment", "robustness", "-quick", "-protocols", "GMP"}, "robustness", ""},
		{[]string{"-experiment", "robustness", "-quick", "-loss", "0.3"}, "robustness", "-loss"},
		{[]string{"-experiment", "loss", "-quick", "-arq"}, "loss", "-arq"},
		{[]string{"-experiment", "lambda", "-quick", "-protocols", "PBM"}, "lambda", "-protocols"},
		{[]string{"-experiment", "delivery", "-quick", "-crash", "0.1"}, "delivery", "-crash"},
		{[]string{"-experiment", "robustness", "-quick", "-nodes", "150"}, "robustness", "-nodes"},
		{[]string{"-experiment", "setup", "-quick", "-nodes", "150"}, "setup", ""},
		{[]string{"-experiment", "robustness", "-quick", "-networks", "1"}, "robustness", "-networks"},
		{[]string{"-experiment", "totalhops", "-quick", "-networks", "1"}, "totalhops", ""},
		{[]string{"-experiment", "delivery", "-quick", "-tasks", "1"}, "delivery", "-tasks"},
		{[]string{"-experiment", "compare", "-quick", "-tasks", "2"}, "compare", ""},
		{[]string{"-experiment", "compare", "-quick", "-ks", "3,5"}, "compare", "-ks"},
		{[]string{"-experiment", "lambda", "-quick", "-ks", "4"}, "lambda", ""},
		{[]string{"-experiment", "totalhops", "-quick", "-shards", "3"}, "totalhops", "-shards"},
		{[]string{"-experiment", "totalhops", "-quick", "-pair", "GMP,GRD"}, "totalhops", "-pair"},
		{[]string{"-experiment", "compare", "-quick", "-pair", "GMP,GRD"}, "compare", ""},
		{[]string{"-experiment", "totalhops", "-quick", "-k", "5"}, "totalhops", "-k"},
		{[]string{"-experiment", "compare", "-quick", "-k", "5"}, "compare", ""},
	} {
		var b strings.Builder
		err := run(tc.args, &b)
		if tc.refuse != "" {
			if err == nil || !strings.Contains(err.Error(), tc.refuse) || !strings.Contains(err.Error(), tc.golden) {
				t.Errorf("%v: err = %v, want a refusal naming %s and %s", tc.args, err, tc.refuse, tc.golden)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+"_quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if b.String() == string(want) {
			t.Errorf("%v reproduced %s_quick.golden: the flags were ignored", tc.args, tc.golden)
		}
	}
}
