package trace

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
)

func lineNetwork(t *testing.T, n int) *network.Network {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(50+float64(i)*100, 50)
	}
	nw, err := network.New(network.FromPoints(pts), float64(n)*100+100, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func runTraced(t *testing.T, nw *network.Network, src int, dests []int) (*Analysis, sim.TaskMetrics) {
	t.Helper()
	pg := planar.Planarize(nw, planar.Gabriel)
	en := sim.NewEngine(nw, sim.DefaultRadioParams(), 100)
	en.SetViews(view.NewOracle(nw, pg))
	var events []sim.TraceEvent
	en.SetTracer(func(ev sim.TraceEvent) { events = append(events, ev) })
	m := en.RunTask(routing.NewGMP(), src, dests)
	en.SetTracer(nil)
	a, err := Analyze(nw, src, events, m.Delivered)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestAnalyzeChain(t *testing.T) {
	nw := lineNetwork(t, 6)
	a, m := runTraced(t, nw, 0, []int{3, 5})
	if a.Transmissions() != m.Transmissions {
		t.Fatalf("transmissions %d vs %d", a.Transmissions(), m.Transmissions)
	}
	// Chain path 0..5: each hop 100 m.
	if a.MeanStride != 100 {
		t.Fatalf("MeanStride = %v", a.MeanStride)
	}
	path, ok := a.Paths[5]
	if !ok || len(path) != 6 || path[0] != 0 || path[5] != 5 {
		t.Fatalf("path to 5 = %v", path)
	}
	// BFS-optimal chain: stretch exactly 1.
	if a.Stretch[5] != 1 || a.Stretch[3] != 1 {
		t.Fatalf("stretch = %v", a.Stretch)
	}
	if a.PerimeterHops != 0 {
		t.Fatalf("PerimeterHops = %d", a.PerimeterHops)
	}
	if a.MaxStretch() != 1 {
		t.Fatalf("MaxStretch = %v", a.MaxStretch())
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	nw := lineNetwork(t, 3)
	if _, err := Analyze(nw, 0, nil, nil); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeBranching(t *testing.T) {
	// Y topology forces a branch point.
	pts := []geom.Point{
		geom.Pt(500, 500),
		geom.Pt(600, 560), geom.Pt(700, 620), // north-east arm
		geom.Pt(600, 440), geom.Pt(700, 380), // south-east arm
	}
	nw, err := network.New(network.FromPoints(pts), 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, m := runTraced(t, nw, 0, []int{2, 4})
	if m.Failed() {
		t.Fatal("failed")
	}
	if a.BranchPoints < 1 {
		t.Fatalf("BranchPoints = %d, want at least 1", a.BranchPoints)
	}
	if len(a.Paths) != 2 {
		t.Fatalf("paths = %v", a.Paths)
	}
}

func TestAnalyzeRandomFieldStretchBounded(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nodes := network.DeployUniform(800, 1000, 1000, r)
	nw, err := network.New(nodes, 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, m := runTraced(t, nw, 0, []int{200, 400, 600})
	if m.Failed() {
		t.Skip("unlucky topology")
	}
	if got := a.MaxStretch(); got < 1 || got > 4 {
		t.Fatalf("MaxStretch = %v outside [1, 4]", got)
	}
	if a.MeanStride <= 0 || a.MeanStride > 150 {
		t.Fatalf("MeanStride = %v", a.MeanStride)
	}
}

func TestDOTAndSummary(t *testing.T) {
	nw := lineNetwork(t, 4)
	a, _ := runTraced(t, nw, 0, []int{3})
	dot := a.DOT()
	for _, want := range []string{"digraph multicast", "doublecircle", "shape=box", "n0 -> n1"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	sum := a.Summary()
	for _, want := range []string{"transmissions", "dest 3", "stretch"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("Summary missing %q:\n%s", want, sum)
		}
	}
}

func TestAnalysisJSON(t *testing.T) {
	nw := lineNetwork(t, 4)
	a, _ := runTraced(t, nw, 0, []int{3})
	data, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["transmissions"].(float64) != float64(a.Transmissions()) {
		t.Fatalf("transmissions mismatch in %s", data)
	}
	paths := decoded["paths"].(map[string]interface{})
	if _, ok := paths["3"]; !ok {
		t.Fatalf("path to 3 missing: %s", data)
	}
}

func TestSelfDeliveryIgnoredInPaths(t *testing.T) {
	nw := lineNetwork(t, 4)
	pg := planar.Planarize(nw, planar.Gabriel)
	en := sim.NewEngine(nw, sim.DefaultRadioParams(), 100)
	en.SetViews(view.NewOracle(nw, pg))
	var events []sim.TraceEvent
	en.SetTracer(func(ev sim.TraceEvent) { events = append(events, ev) })
	m := en.RunTask(routing.NewGMP(), 1, []int{1, 3})
	en.SetTracer(nil)
	a, err := Analyze(nw, 1, events, m.Delivered)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Paths[1]; ok {
		t.Fatal("self delivery should not produce a path")
	}
	if _, ok := a.Paths[3]; !ok {
		t.Fatal("real delivery missing")
	}
}
