package network

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/steiner"
)

func mustNetwork(t *testing.T, nodes []Node, w, h, rng float64) *Network {
	t.Helper()
	nw, err := New(nodes, w, h, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 100, 100, 10); !errors.Is(err, ErrNoNodes) {
		t.Errorf("no nodes: %v", err)
	}
	nodes := FromPoints([]geom.Point{geom.Pt(1, 1)})
	if _, err := New(nodes, 100, 100, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("bad range: %v", err)
	}
	if _, err := New(nodes, 0, 100, 10); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("bad dims: %v", err)
	}
	bad := []Node{{ID: 5, Pos: geom.Pt(1, 1)}}
	if _, err := New(bad, 100, 100, 10); err == nil {
		t.Error("sparse IDs should be rejected")
	}
}

// TestNewRefusesNonFinite pins that a NaN or infinite range, dimension or
// coordinate is refused with a typed error instead of sizing the cell grid
// from it (a NaN range or an infinite width used to panic in makeslice).
func TestNewRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := FromPoints([]geom.Point{geom.Pt(1, 1), geom.Pt(5, 5)})
	for _, c := range []struct {
		name        string
		nodes       []Node
		w, h, radio float64
		want        error
	}{
		{"NaN range", ok, 100, 100, nan, ErrBadRange},
		{"+Inf range", ok, 100, 100, inf, ErrBadRange},
		{"-Inf range", ok, 100, 100, -inf, ErrBadRange},
		{"NaN width", ok, nan, 100, 10, ErrBadDimensions},
		{"+Inf width", ok, inf, 100, 10, ErrBadDimensions},
		{"NaN height", ok, 100, nan, 10, ErrBadDimensions},
		{"+Inf height", ok, 100, inf, 10, ErrBadDimensions},
		{"-Inf height", ok, 100, -inf, 10, ErrBadDimensions},
		{"NaN x", FromPoints([]geom.Point{geom.Pt(1, 1), geom.Pt(nan, 5)}), 100, 100, 10, ErrBadPosition},
		{"NaN y", FromPoints([]geom.Point{geom.Pt(1, nan)}), 100, 100, 10, ErrBadPosition},
		{"+Inf x", FromPoints([]geom.Point{geom.Pt(inf, 1)}), 100, 100, 10, ErrBadPosition},
		{"-Inf y", FromPoints([]geom.Point{geom.Pt(1, -inf)}), 100, 100, 10, ErrBadPosition},
		// Finite, but too many radio-range cells for the grid.
		{"1e300 width", ok, 1e300, 100, 15, ErrBadDimensions},
		{"1e300 height", ok, 100, 1e300, 15, ErrBadDimensions},
		{"MaxFloat64 both", ok, math.MaxFloat64, math.MaxFloat64, 1, ErrBadDimensions},
		{"tiny range", ok, 100, 100, 1e-300, ErrBadDimensions},
		{"1e5 m at 1 m range", ok, 1e5, 1e5, 1, ErrBadDimensions},
		{"2048×2048 cells", ok, 2048, 2047, 1, ErrBadDimensions},
	} {
		nw, err := New(c.nodes, c.w, c.h, c.radio)
		if !errors.Is(err, c.want) || nw != nil {
			t.Errorf("%s: got (%v, %v), want %v", c.name, nw, err, c.want)
		}
	}
	// Out-of-region but finite positions stay legal: they clamp to border
	// cells.
	if _, err := New(FromPoints([]geom.Point{geom.Pt(-50, 1e6)}), 100, 100, 10); err != nil {
		t.Errorf("finite out-of-region position refused: %v", err)
	}
	// The largest field in use fits the cell budget: the 10⁶-node scale arm
	// (1000 m² per node, 150 m range).
	if _, err := New(ok, math.Sqrt(1e9), math.Sqrt(1e9), 150); err != nil {
		t.Errorf("10⁶-node scale field refused: %v", err)
	}
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	nodes := DeployUniform(300, 1000, 1000, r)
	nw := mustNetwork(t, nodes, 1000, 1000, 150)
	for _, n := range nodes {
		want := map[int]bool{}
		for _, m := range nodes {
			if m.ID != n.ID && n.Pos.Dist(m.Pos) <= 150 {
				want[m.ID] = true
			}
		}
		got := nw.Neighbors(n.ID)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", n.ID, len(got), len(want))
		}
		for _, id := range got {
			if !want[int(id)] {
				t.Fatalf("node %d: unexpected neighbor %d", n.ID, id)
			}
		}
		// Sorted ascending.
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("node %d: neighbors not sorted: %v", n.ID, got)
			}
		}
	}
}

func TestNeighborsEdgeOfRegion(t *testing.T) {
	// Nodes on the region boundary must index into valid grid cells.
	nodes := FromPoints([]geom.Point{
		geom.Pt(0, 0), geom.Pt(1000, 1000), geom.Pt(1000, 0), geom.Pt(0, 1000),
		geom.Pt(999, 999),
	})
	nw := mustNetwork(t, nodes, 1000, 1000, 150)
	if got := nw.Neighbors(1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("corner neighbors = %v", got)
	}
	if nw.Degree(0) != 0 {
		t.Fatalf("origin corner should be isolated, degree %d", nw.Degree(0))
	}
}

func TestInRangeAndDist(t *testing.T) {
	nodes := FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(150, 0), geom.Pt(151, 0)})
	nw := mustNetwork(t, nodes, 1000, 1000, 150)
	if !nw.InRange(0, 1) {
		t.Error("boundary distance should be in range")
	}
	if nw.InRange(0, 2) {
		t.Error("just beyond range")
	}
	if d := nw.Dist(0, 2); d != 151 {
		t.Errorf("Dist = %v", d)
	}
}

func TestConnectivityAndReachability(t *testing.T) {
	// Chain topology: 0-1-2 connected, 3 isolated.
	nodes := FromPoints([]geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0), geom.Pt(700, 700),
	})
	nw := mustNetwork(t, nodes, 1000, 1000, 120)
	if nw.Connected() {
		t.Error("network with isolated node reported connected")
	}
	reach := nw.ReachableFrom(0)
	if len(reach) != 3 || reach[0] != 0 || reach[2] != 2 {
		t.Errorf("ReachableFrom(0) = %v", reach)
	}
	dists := nw.HopDistances(0)
	want := []int{0, 1, 2, -1}
	for i, w := range want {
		if dists[i] != w {
			t.Errorf("HopDistances[%d] = %d, want %d", i, dists[i], w)
		}
	}
}

func TestGridDeployConnected(t *testing.T) {
	nodes := DeployGrid(10, 10, 100)
	nw := mustNetwork(t, nodes, 1000, 1000, 150)
	if !nw.Connected() {
		t.Fatal("grid with spacing < range must be connected")
	}
	// Interior node at (450+?,...): grid spacing 100, range 150 covers the 4
	// orthogonal and 4 diagonal neighbors (diag = 141.4 < 150).
	center := nw.ClosestNode(geom.Pt(450, 450))
	if got := nw.Degree(center); got != 8 {
		t.Fatalf("interior grid degree = %d, want 8", got)
	}
}

func TestClosestNodeAndDisk(t *testing.T) {
	nodes := DeployGrid(5, 5, 100)
	nw := mustNetwork(t, nodes, 500, 500, 150)
	id := nw.ClosestNode(geom.Pt(51, 52))
	if !nw.Pos(id).Eq(geom.Pt(50, 50)) {
		t.Fatalf("ClosestNode = %d at %v", id, nw.Pos(id))
	}
	disk := nw.NodesInDisk(geom.Pt(50, 50), 101)
	if len(disk) != 3 {
		t.Fatalf("NodesInDisk = %v", disk)
	}
}

func TestAvgDegreeMatchesTheory(t *testing.T) {
	// For uniform density d nodes/m² and range r, expected degree ≈ dπr²
	// away from borders. With 1000 nodes in 1000x1000 at r=150 that is
	// ≈ 70.7; border effects pull the mean down ~10-20%.
	r := rand.New(rand.NewSource(67))
	nodes := DeployUniform(1000, 1000, 1000, r)
	nw := mustNetwork(t, nodes, 1000, 1000, 150)
	got := nw.AvgDegree()
	if got < 50 || got > 72 {
		t.Fatalf("AvgDegree = %v, outside plausible band [50, 72]", got)
	}
}

func TestDeployUniformWithVoid(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	center := geom.Pt(500, 500)
	nodes := DeployUniformWithVoid(500, 1000, 1000, center, 200, r)
	if len(nodes) != 500 {
		t.Fatalf("deployed %d nodes", len(nodes))
	}
	for _, n := range nodes {
		if n.Pos.Dist(center) < 200 {
			t.Fatalf("node %d inside the void at %v", n.ID, n.Pos)
		}
	}
}

func TestDeployUniformExcludeAndCShape(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	center := geom.Pt(500, 500)
	trap := CShapedObstacle(center, 180, 360)
	nodes := DeployUniformExclude(400, 1000, 1000, trap, r)
	if len(nodes) != 400 {
		t.Fatalf("deployed %d", len(nodes))
	}
	for _, n := range nodes {
		if trap(n.Pos) {
			t.Fatalf("node %d inside the obstacle at %v", n.ID, n.Pos)
		}
	}
	// The predicate itself: wall east, opening west, clear center/outside.
	if !trap(geom.Pt(500+250, 500)) {
		t.Error("east wall should be excluded")
	}
	if trap(geom.Pt(500-250, 500)) {
		t.Error("western opening should be allowed")
	}
	if trap(center) || trap(geom.Pt(500, 500+170)) {
		t.Error("pocket interior should be allowed")
	}
	if trap(geom.Pt(500, 500+400)) {
		t.Error("outside the outer radius should be allowed")
	}
	if !trap(geom.Pt(500, 500+250)) {
		t.Error("north wall should be excluded")
	}
}

func TestDeployDeterminism(t *testing.T) {
	a := DeployUniform(50, 1000, 1000, rand.New(rand.NewSource(99)))
	b := DeployUniform(50, 1000, 1000, rand.New(rand.NewSource(99)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical deployment")
		}
	}
}

func TestGraphExport(t *testing.T) {
	nodes := FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0)})
	nw := mustNetwork(t, nodes, 1000, 1000, 120)
	g := nw.Graph()
	if g.N != 3 {
		t.Fatalf("Graph.N = %d", g.N)
	}
	if len(g.Neighbors(1)) != 2 {
		t.Fatalf("middle node adjacency = %v", g.Neighbors(1))
	}
}

// TestViewTablesFollowEveryView builds the parent's edge lengths and
// component labels first, then checks that each view kind carries its own:
// positions equal to the view's Pos, lengths equal to the view's Dist and
// to the distances of those positions bit for bit, and labels that agree with
// the view's BFS reachability. A view sharing its parent's tables would
// give a noisy or stale view the true-position lengths, and a failure view
// the intact graph's components.
func TestViewTablesFollowEveryView(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	nw := mustNetwork(t, DeployUniform(300, 1000, 1000, r), 1000, 1000, 120)
	nw.Graph()
	stale := map[int]geom.Point{}
	for id := 0; id < nw.Len(); id += 7 {
		stale[id] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	failed := make([]int, 0, 60)
	for id := 0; id < nw.Len(); id += 5 {
		failed = append(failed, id)
	}
	views := map[string]*Network{
		"parent":   nw,
		"noise":    nw.WithPositionNoise(25, rand.New(rand.NewSource(2))),
		"reported": nw.WithReportedPositions(stale),
		"failures": nw.WithFailures(failed),
	}
	views["noise+failures"] = views["noise"].WithFailures(failed)
	for name, v := range views {
		g := v.Graph()
		if len(g.Pos) != v.Len() {
			t.Fatalf("%s: %d positions for %d nodes", name, len(g.Pos), v.Len())
		}
		for id := 0; id < v.Len(); id++ {
			if len(g.W) != len(g.Nbr) {
				t.Fatalf("%s: %d lengths for %d links", name, len(g.W), len(g.Nbr))
			}
			if g.Pos[id] != v.Pos(id) {
				t.Fatalf("%s: Graph position of %d is %v, Pos %v", name, id, g.Pos[id], v.Pos(id))
			}
			// The lengths are the graph's positions' distances, which KMB's
			// straight-line cuts rely on.
			w := g.W[g.Off[id]:g.Off[id+1]]
			for i, n := range g.Neighbors(id) {
				if math.Float64bits(w[i]) != math.Float64bits(v.Dist(id, int(n))) ||
					math.Float64bits(w[i]) != math.Float64bits(g.Pos[id].Dist(g.Pos[n])) {
					t.Fatalf("%s: W[%d][%d] = %v, Dist = %v, position distance %v", name, id, i, w[i], v.Dist(id, int(n)), g.Pos[id].Dist(g.Pos[n]))
				}
			}
		}
		for _, src := range []int{0, 1, 2, 3, 150} {
			hop := v.HopDistances(src)
			for id, h := range hop {
				if same := v.Component(id) == v.Component(src); same != (h >= 0) {
					t.Fatalf("%s: Component(%d) == Component(%d) is %v, hop distance %d", name, id, src, same, h)
				}
			}
		}
	}
}

// TestViewTablesConcurrentFirstUse has several goroutines make the first
// Graph and Component calls on one network at once: each must see the
// same, complete tables (run under -race).
func TestViewTablesConcurrentFirstUse(t *testing.T) {
	nw := mustNetwork(t, DeployUniform(400, 1000, 1000, rand.New(rand.NewSource(62))), 1000, 1000, 120)
	const workers = 4
	var wg sync.WaitGroup
	graphs := make([]steiner.Graph, workers)
	comps := make([][]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comps[i] = make([]int, nw.Len())
			for id := range comps[i] {
				comps[i][id] = nw.Component(id)
			}
			graphs[i] = nw.Graph()
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if !slices.Equal(comps[i], comps[0]) || &graphs[i].W[0] != &graphs[0].W[0] {
			t.Fatalf("goroutine %d saw different tables", i)
		}
	}
}
