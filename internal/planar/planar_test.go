package planar

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
)

func mustNet(t *testing.T, nodes []network.Node, w, h, rng float64) *network.Network {
	t.Helper()
	nw, err := network.New(nodes, w, h, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestKindString(t *testing.T) {
	if Gabriel.String() != "gabriel" || RelativeNeighborhood.String() != "rng" {
		t.Error("kind strings")
	}
	if Kind(0).String() == "" {
		t.Error("unknown kind string")
	}
}

func TestPlanarizeSubsetChain(t *testing.T) {
	// RNG ⊆ GG ⊆ UDG on random networks.
	r := rand.New(rand.NewSource(73))
	nodes := network.DeployUniform(250, 1000, 1000, r)
	nw := mustNet(t, nodes, 1000, 1000, 150)
	gg := Planarize(nw, Gabriel)
	rng := Planarize(nw, RelativeNeighborhood)

	for u := 0; u < nw.Len(); u++ {
		udg := map[int]bool{}
		for _, v := range nw.Neighbors(u) {
			udg[int(v)] = true
		}
		ggSet := map[int]bool{}
		for _, v := range gg.Neighbors(u) {
			if !udg[v] {
				t.Fatalf("GG edge (%d,%d) not in UDG", u, v)
			}
			ggSet[v] = true
		}
		for _, v := range rng.Neighbors(u) {
			if !ggSet[v] {
				t.Fatalf("RNG edge (%d,%d) not in GG", u, v)
			}
		}
	}
	if rng.NumEdges() > gg.NumEdges() {
		t.Fatalf("RNG has more edges (%d) than GG (%d)", rng.NumEdges(), gg.NumEdges())
	}
}

func TestPlanarizeSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	nodes := network.DeployUniform(200, 1000, 1000, r)
	nw := mustNet(t, nodes, 1000, 1000, 150)
	for _, kind := range []Kind{Gabriel, RelativeNeighborhood} {
		g := Planarize(nw, kind)
		for u := 0; u < nw.Len(); u++ {
			for _, v := range g.Neighbors(u) {
				found := false
				for _, w := range g.Neighbors(v) {
					if w == u {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%v edge (%d,%d) not symmetric", kind, u, v)
				}
			}
		}
	}
}

func TestPlanarizeNoCrossings(t *testing.T) {
	// The defining property: extracted edges never properly cross.
	r := rand.New(rand.NewSource(83))
	nodes := network.DeployUniform(120, 600, 600, r)
	nw := mustNet(t, nodes, 600, 600, 150)
	for _, kind := range []Kind{Gabriel, RelativeNeighborhood} {
		g := Planarize(nw, kind)
		var edges []geom.Segment
		for u := 0; u < nw.Len(); u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					edges = append(edges, geom.Seg(nw.Pos(u), nw.Pos(v)))
				}
			}
		}
		for i := range edges {
			for j := i + 1; j < len(edges); j++ {
				if edges[i].ProperlyIntersects(edges[j]) {
					t.Fatalf("%v edges cross: %v and %v", kind, edges[i], edges[j])
				}
			}
		}
	}
}

func TestPlanarizePreservesConnectivity(t *testing.T) {
	// GG and RNG of a connected unit-disk graph remain connected.
	r := rand.New(rand.NewSource(89))
	for trial := 0; trial < 5; trial++ {
		nodes := network.DeployUniform(400, 1000, 1000, r)
		nw := mustNet(t, nodes, 1000, 1000, 150)
		if !nw.Connected() {
			continue
		}
		for _, kind := range []Kind{Gabriel, RelativeNeighborhood} {
			g := Planarize(nw, kind)
			seen := make([]bool, nw.Len())
			seen[0] = true
			queue := []int{0}
			count := 1
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range g.Neighbors(u) {
					if !seen[v] {
						seen[v] = true
						count++
						queue = append(queue, v)
					}
				}
			}
			if count != nw.Len() {
				t.Fatalf("%v disconnected the network: %d of %d reachable", kind, count, nw.Len())
			}
		}
	}
}

func TestPlanarizeCCWOrder(t *testing.T) {
	// Cross topology: center node with 4 arms; CCW order must start from
	// bearing -π side and wrap consistently.
	nodes := network.FromPoints([]geom.Point{
		geom.Pt(500, 500), // 0 center
		geom.Pt(600, 500), // 1 east
		geom.Pt(500, 600), // 2 north
		geom.Pt(400, 500), // 3 west
		geom.Pt(500, 400), // 4 south
	})
	nw := mustNet(t, nodes, 1000, 1000, 150)
	g := Planarize(nw, Gabriel)
	got := g.Neighbors(0)
	// Bearings: east=0, north=π/2, west=π, south=-π/2. Sorted ascending by
	// bearing: south (-π/2), east (0), north (π/2), west (π).
	want := []int{4, 1, 2, 3}
	if len(got) != 4 {
		t.Fatalf("center degree = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CCW order = %v, want %v", got, want)
		}
	}
}

func TestNextHopRightHandRuleOnRing(t *testing.T) {
	// A square ring of nodes with the target inside a void: the right-hand
	// rule must walk the ring counter... the rule yields a consistent cycle
	// covering the face boundary.
	pts := []geom.Point{
		geom.Pt(400, 400), geom.Pt(500, 400), geom.Pt(600, 400),
		geom.Pt(600, 500), geom.Pt(600, 600), geom.Pt(500, 600),
		geom.Pt(400, 600), geom.Pt(400, 500),
	}
	nw := mustNet(t, network.FromPoints(pts), 1000, 1000, 110)
	g := Planarize(nw, Gabriel)
	target := geom.Pt(500, 500) // center of the ring; no node there
	st := Enter(g, 0, target)
	cur := 0
	visited := map[int]bool{0: true}
	for hop := 0; hop < 16; hop++ {
		next, nst, ok := NextHop(g, cur, st)
		if !ok {
			t.Fatal("traversal stuck")
		}
		st = nst
		cur = next
		visited[cur] = true
		if cur == 0 && hop > 0 {
			break
		}
	}
	if len(visited) != len(pts) {
		t.Fatalf("face walk visited %d of %d ring nodes", len(visited), len(pts))
	}
}

func TestNextHopIsolatedNode(t *testing.T) {
	nodes := network.FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(900, 900)})
	nw := mustNet(t, nodes, 1000, 1000, 100)
	g := Planarize(nw, Gabriel)
	st := Enter(g, 0, geom.Pt(500, 500))
	if _, _, ok := NextHop(g, 0, st); ok {
		t.Fatal("isolated node must not produce a next hop")
	}
}

func TestNextHopDeadEndBouncesBack(t *testing.T) {
	// A two-node path: from the dead end the only move is back.
	nodes := network.FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)})
	nw := mustNet(t, nodes, 1000, 1000, 150)
	g := Planarize(nw, Gabriel)
	st := Enter(g, 0, geom.Pt(500, 0))
	next, st2, ok := NextHop(g, 0, st)
	if !ok || next != 1 {
		t.Fatalf("first hop = %d ok=%v", next, ok)
	}
	next, _, ok = NextHop(g, 1, st2)
	if !ok || next != 0 {
		t.Fatalf("dead end should bounce back to 0, got %d ok=%v", next, ok)
	}
}

func TestRouteRecoversAroundVoid(t *testing.T) {
	// Dense deployment with a central void; greedy would fail crossing it,
	// perimeter routing must find a node closer to the target than where it
	// entered.
	r := rand.New(rand.NewSource(97))
	center := geom.Pt(500, 500)
	nodes := network.DeployUniformWithVoid(600, 1000, 1000, center, 180, r)
	nw := mustNet(t, nodes, 1000, 1000, 150)
	if !nw.Connected() {
		t.Skip("unlucky disconnected deployment")
	}
	g := Planarize(nw, Gabriel)
	// Start west of the void aiming just past its east side.
	start := nw.ClosestNode(geom.Pt(300, 500))
	target := geom.Pt(720, 500)
	path, recovered := Route(g, start, target, 200)
	if !recovered {
		t.Fatalf("perimeter routing failed to recover; path %v", path)
	}
	last := path[len(path)-1]
	if nw.Pos(last).Dist(target) >= nw.Pos(start).Dist(target) {
		t.Fatal("recovery point not closer to target")
	}
}

func TestRouteHopBudgetExhaustion(t *testing.T) {
	// An isolated ring around the target can never get closer: the walk
	// must stop at maxHops and report no recovery.
	pts := []geom.Point{
		geom.Pt(400, 400), geom.Pt(500, 400), geom.Pt(600, 400),
		geom.Pt(600, 500), geom.Pt(600, 600), geom.Pt(500, 600),
		geom.Pt(400, 600), geom.Pt(400, 500),
	}
	nw := mustNet(t, network.FromPoints(pts), 1000, 1000, 110)
	g := Planarize(nw, Gabriel)
	path, recovered := Route(g, 1, geom.Pt(500, 500), 25)
	if recovered {
		t.Fatalf("cannot recover toward unreachable center, path %v", path)
	}
	if len(path) != 26 {
		t.Fatalf("path length = %d, want maxHops+1", len(path))
	}
}
