package gmp

// One benchmark per table/figure of the paper's evaluation (§5), plus the
// ablations called out in DESIGN.md §4. Each benchmark regenerates its
// figure's series at a reduced-but-representative scale and reports the
// headline numbers via b.ReportMetric, so `go test -bench=.` doubles as a
// smoke reproduction. The full-scale campaign lives behind `gmpsim`.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gmp/internal/experiment"
	"gmp/internal/planar"
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// newBenchRand gives every benchmark the same deployment stream.
func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// benchConfig is the reduced campaign used by the figure benchmarks: one
// deployment, a trimmed k sweep, Table 1 physics.
func benchConfig() experiment.Config {
	cfg := experiment.Default()
	cfg.Nodes = 600
	cfg.Networks = 1
	cfg.TasksPerNet = 20
	cfg.Ks = []int{5, 15, 25}
	cfg.Lambdas = []float64{0, 0.3, 0.6}
	cfg.Seed = 1
	return cfg
}

// reportSeries publishes the largest-k value of each protocol series.
func reportSeries(b *testing.B, tbl *stats.Table, unit string) {
	b.Helper()
	last := len(tbl.Xs) - 1
	for _, s := range tbl.Series {
		b.ReportMetric(s.Y[last], s.Label+"-"+unit)
	}
}

// BenchmarkTable1Setup measures the fixed cost of standing up one Table 1
// deployment: uniform placement, adjacency, planarization.
func BenchmarkTable1Setup(b *testing.B) {
	b.ReportAllocs()
	cfg := experiment.Default()
	cfg.Ks = []int{3}
	cfg.Networks = 1
	cfg.TasksPerNet = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunMain(cfg, []string{experiment.ProtoGRD}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11TotalHops regenerates Figure 11 (total number of hops vs k).
func BenchmarkFig11TotalHops(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	protos := experiment.AllProtocols()
	var res *experiment.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunMain(cfg, protos)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res.TotalHops, "hops")
}

// BenchmarkFig12PerDestHops regenerates Figure 12 (per-destination hop count
// vs k).
func BenchmarkFig12PerDestHops(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	protos := experiment.AllProtocols()
	var res *experiment.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunMain(cfg, protos)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res.PerDestHops, "hops/dest")
}

// BenchmarkFig14Energy regenerates Figure 14 (total energy cost vs k).
func BenchmarkFig14Energy(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	protos := experiment.AllProtocols()
	var res *experiment.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunMain(cfg, protos)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res.Energy, "J")
}

// BenchmarkFig15Failures regenerates Figure 15 (failed tasks vs density).
func BenchmarkFig15Failures(b *testing.B) {
	b.ReportAllocs()
	fc := experiment.DefaultFailureConfig()
	fc.Base.Networks = 1
	fc.Base.TasksPerNet = 20
	fc.NodeCounts = []int{400, 700, 1000}
	fc.K = 12
	protos := []string{experiment.ProtoPBM, experiment.ProtoLGS, experiment.ProtoGMP}
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiment.RunFailures(fc, protos)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report failures at the sparsest density (the regime the figure is
	// about).
	for _, s := range tbl.Series {
		b.ReportMetric(s.Y[0], s.Label+"-failed")
	}
}

// BenchmarkAblationRadioAware isolates the §3.3 radio-range awareness (GMP
// vs GMPnr), the gap Figure 11 attributes to redundant-hop suppression.
func BenchmarkAblationRadioAware(b *testing.B) {
	cfg := benchConfig()
	protos := []string{experiment.ProtoGMP, experiment.ProtoGMPnr}
	var res *experiment.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunMain(cfg, protos)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res.TotalHops, "hops")
}

// BenchmarkAblationPlanarizer compares Gabriel vs RNG planarization under
// the failure experiment (perimeter routing is the only consumer of the
// planar graph).
func BenchmarkAblationPlanarizer(b *testing.B) {
	for _, kind := range []planar.Kind{planar.Gabriel, planar.RelativeNeighborhood} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			fc := experiment.DefaultFailureConfig()
			fc.Base.Networks = 1
			fc.Base.TasksPerNet = 20
			fc.Base.Planarizer = kind
			fc.NodeCounts = []int{500}
			var tbl *stats.Table
			for i := 0; i < b.N; i++ {
				var err error
				tbl, err = experiment.RunFailures(fc, []string{experiment.ProtoGMP})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tbl.Series[0].Y[0], "failed")
		})
	}
}

// BenchmarkAblationTreeConstruction isolates the paper's central claim by
// swapping GMP's rrSTR tree for a Euclidean MST and for a corner-Steinerized
// MST while keeping everything else (A-4/A-6): rrSTR buys much lower
// per-destination hops at slightly higher total hops.
func BenchmarkAblationTreeConstruction(b *testing.B) {
	cfg := benchConfig()
	protos := []string{experiment.ProtoGMP, experiment.ProtoGMPmst, experiment.ProtoGMPsmst}
	var res *experiment.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunMain(cfg, protos)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res.TotalHops, "hops")
	reportSeries(b, res.PerDestHops, "hops/dest")
}

// BenchmarkAblationPBMLambda regenerates the §5.1 λ trade-off sweep.
func BenchmarkAblationPBMLambda(b *testing.B) {
	cfg := benchConfig()
	cfg.Lambdas = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiment.LambdaSweep(cfg, 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	total := tbl.Get("total hops")
	b.ReportMetric(total.Y[0], "hops@λ=0")
	b.ReportMetric(total.Y[len(total.Y)-1], "hops@λ=0.6")
}

// BenchmarkExtRobustness regenerates the E-X1 node-failure extension at
// reduced scale.
func BenchmarkExtRobustness(b *testing.B) {
	rc := experiment.QuickRobustnessConfig()
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiment.RunRobustness(rc, []string{experiment.ProtoGMP, experiment.ProtoLGS})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(tbl.Xs) - 1
	for _, s := range tbl.Series {
		b.ReportMetric(s.Y[last], s.Label+"-delivery")
	}
}

// BenchmarkExtLocalization regenerates the E-X2 GPS-error extension at
// reduced scale.
func BenchmarkExtLocalization(b *testing.B) {
	lc := experiment.QuickLocalizationConfig()
	var res *experiment.LocalizationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunLocalization(lc, []string{experiment.ProtoGMP, experiment.ProtoGRD})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(res.Delivery.Xs) - 1
	for _, s := range res.Delivery.Series {
		b.ReportMetric(s.Y[last], s.Label+"-delivery")
	}
}

// BenchmarkExtStaleness regenerates the E-X3 location-staleness extension
// at reduced scale.
func BenchmarkExtStaleness(b *testing.B) {
	sc := experiment.QuickStalenessConfig()
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiment.RunStaleness(sc, []string{experiment.ProtoGMP, experiment.ProtoGRD})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(tbl.Xs) - 1
	for _, s := range tbl.Series {
		b.ReportMetric(s.Y[last], s.Label+"-delivery")
	}
}

// BenchmarkExtLifetime regenerates the E-X4 network-lifetime extension at
// reduced scale.
func BenchmarkExtLifetime(b *testing.B) {
	lt := experiment.QuickLifetimeConfig()
	lt.Base.Networks = 1
	var res *experiment.LifetimeResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunLifetime(lt, []string{experiment.ProtoGMP, experiment.ProtoGRD})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(res.FirstDeath.Xs) - 1
	for _, s := range res.FirstDeath.Series {
		b.ReportMetric(s.Y[last], s.Label+"-tasks")
	}
}

// BenchmarkExtLoad regenerates the E-X5 concurrent-load latency extension
// at reduced scale.
func BenchmarkExtLoad(b *testing.B) {
	ld := experiment.QuickLoadConfig()
	ld.Base.Networks = 1
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiment.RunLoad(ld, []string{experiment.ProtoGMP, experiment.ProtoGRD})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(tbl.Xs) - 1
	for _, s := range tbl.Series {
		// Metric units must not contain whitespace ("GMP p95" → "GMP-p95").
		b.ReportMetric(s.Y[last], strings.ReplaceAll(s.Label, " ", "-")+"-ms")
	}
}

// BenchmarkAblationFrameSizing quantifies what the paper's flat 128 B
// message size hides: energy with real wire-format frame sizes (A-5).
func BenchmarkAblationFrameSizing(b *testing.B) {
	sys := benchSystem(b)
	dests := []int{100, 250, 400, 550, 700, 850, 950, 50, 300, 600, 750, 900}
	proto := sys.GMP()
	var fixedJ, dynJ float64
	for i := 0; i < b.N; i++ {
		sys.SetDynamicFrames(false)
		fixedJ = sys.Multicast(proto, 0, dests).EnergyJ
		sys.SetDynamicFrames(true)
		dynJ = sys.Multicast(proto, 0, dests).EnergyJ
		sys.SetDynamicFrames(false)
	}
	b.ReportMetric(fixedJ, "fixed-J")
	b.ReportMetric(dynJ, "dynamic-J")
	if fixedJ > 0 {
		b.ReportMetric((dynJ/fixedJ-1)*100, "overhead-%")
	}
}

// BenchmarkExtBeaconing regenerates the E-X6 neighbor-discovery extension
// at reduced scale.
func BenchmarkExtBeaconing(b *testing.B) {
	bc := experiment.QuickBeaconConfig()
	bc.Base.Networks = 1
	var res *experiment.BeaconResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunBeaconing(bc)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(res.PosError.Xs) - 1
	b.ReportMetric(res.PosError.Series[0].Y[last], "posErr-m")
	b.ReportMetric(res.EnergyPerHour.Series[0].Y[0], "fastBeacon-J/h")
}

// BenchmarkExtClustering regenerates the E-X7 destination-clustering
// extension at reduced scale.
func BenchmarkExtClustering(b *testing.B) {
	cc := experiment.QuickClusteringConfig()
	cc.Base.Networks = 1
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiment.RunClustering(cc, []string{experiment.ProtoGMP, experiment.ProtoGRD})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range tbl.Series {
		b.ReportMetric(s.Y[0], s.Label+"-tight-hops")
	}
}

// BenchmarkMulticastTask measures the end-to-end cost of a single GMP
// multicast on a Table 1 scale network — the per-packet figure a deployment
// would care about.
func BenchmarkMulticastTask(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem(b)
	dests := []int{100, 250, 400, 550, 700, 850, 950, 50, 300, 600, 750, 900}
	proto := sys.GMP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sys.Multicast(proto, 0, dests)
		if res.InvalidSends != 0 {
			b.Fatal("invalid sends")
		}
	}
}

// BenchmarkScriptReused runs one script of 200 overlapping sessions,
// alternating GMP and GRD with 10 destinations each, on a Table 1 network,
// again on the same engine every iteration: the lane kernel's per-run
// session state — slab, index slots and delivery records — is reused, so
// allocs/op counts what a run still allocates.
func BenchmarkScriptReused(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem(b)
	tasks, err := workload.GenerateBatch(newBenchRand(), sys.Network().Len(), 10, 200)
	if err != nil {
		b.Fatal(err)
	}
	script := make([]ScriptSession, len(tasks))
	for i, task := range tasks {
		p := sys.GMP()
		if i%2 == 1 {
			p = sys.GRD()
		}
		script[i] = ScriptSession{Start: float64(i) * 0.002, Handler: p, Src: task.Source, Dests: task.Dests}
	}
	sys.RunScript(script)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range sys.RunScript(script) {
			if m.InvalidSends != 0 {
				b.Fatal("invalid sends")
			}
		}
	}
}

func benchSystem(b *testing.B) *System {
	b.Helper()
	nodes := DeployUniform(1000, 1000, 1000, newBenchRand())
	nw, err := NewNetwork(nodes, 1000, 1000, 150)
	if err != nil {
		b.Fatal(err)
	}
	return NewSystem(nw)
}

// BenchmarkSingleRRSTRBuild isolates one rrSTR tree construction (the §3
// algorithm itself, no simulation): source plus 12 destinations with the
// full radio-aware heuristic, the hot inner call of every GMP forwarding
// step. It measures the steady state GMP actually runs in — a per-node
// SteinerBuilder reused across decisions — so allocs/op reflects the arena's
// residual garbage, not first-build warm-up.
func BenchmarkSingleRRSTRBuild(b *testing.B) {
	b.ReportAllocs()
	nodes := DeployUniform(1000, 1000, 1000, newBenchRand())
	nw, err := NewNetwork(nodes, 1000, 1000, 150)
	if err != nil {
		b.Fatal(err)
	}
	destIDs := []int{100, 250, 400, 550, 700, 850, 950, 50, 300, 600, 750, 900}
	dests := make([]SteinerDest, len(destIDs))
	for i, d := range destIDs {
		dests[i] = SteinerDest{Pos: nw.Pos(d), Label: i}
	}
	opts := SteinerOptions{RadioRange: nw.Range(), RadioAware: true}
	var builder SteinerBuilder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree := builder.Build(nw.Pos(0), dests, opts); tree == nil {
			b.Fatal("nil tree")
		}
	}
}

// BenchmarkSingleGMPHop measures one GMP forwarding decision: a multicast
// with a one-hop budget performs exactly the source's group-split and
// next-hop selection, then stops.
func BenchmarkSingleGMPHop(b *testing.B) {
	b.ReportAllocs()
	nodes := DeployUniform(1000, 1000, 1000, newBenchRand())
	nw, err := NewNetwork(nodes, 1000, 1000, 150)
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(nw, WithMaxHops(1))
	proto := sys.GMP()
	dests := []int{100, 250, 400, 550, 700, 850, 950, 50, 300, 600, 750, 900}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Multicast(proto, 0, dests)
	}
}

// BenchmarkFailureSweepWorkers runs a reduced Figure 15 sweep at several
// worker-pool sizes — the campaign runner's headline scaling measurement.
// On multi-core hardware wall-clock drops as workers grow; output is
// byte-identical at every size (see TestWorkersDeterminism).
func BenchmarkFailureSweepWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			fc := experiment.DefaultFailureConfig()
			fc.Base.Networks = 2
			fc.Base.TasksPerNet = 10
			fc.Base.Workers = w
			fc.NodeCounts = []int{300, 500, 700, 900}
			fc.K = 12
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunFailures(fc, []string{experiment.ProtoGMP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
