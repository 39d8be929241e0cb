package network

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gmp/internal/geom"
)

// bruteClosest is the reference O(n) scan ClosestNode replaced: strict `<`
// over nodes in ID order, so the lowest ID wins exact distance ties.
func bruteClosest(nw *Network, p geom.Point) int {
	best, bestD := -1, math.Inf(1)
	for id, q := range nw.phys {
		if d := q.Dist2(p); d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// bruteDisk is the reference O(n) scan NodesInDisk replaced.
func bruteDisk(nw *Network, p geom.Point, radius float64) []int {
	var out []int
	r2 := radius * radius
	for id, q := range nw.phys {
		if q.Dist2(p) <= r2 {
			out = append(out, id)
		}
	}
	return out
}

// randomTestNet deploys a uniform network; every trial varies density so the
// grid sees empty, sparse and crowded cells.
func randomTestNet(t *testing.T, r *rand.Rand, n int, w, h, rng float64) *Network {
	t.Helper()
	nw, err := New(DeployUniform(n, w, h, r), w, h, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// queryPoint draws a point over an area 40% larger than the region on every
// side, so queries regularly fall outside the grid (cellOf clamps them).
func queryPoint(r *rand.Rand, w, h float64) geom.Point {
	return geom.Pt((r.Float64()*1.8-0.4)*w, (r.Float64()*1.8-0.4)*h)
}

func TestClosestNodeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 60, 400, 1200} {
		nw := randomTestNet(t, r, n, 900, 600, 120)
		for q := 0; q < 400; q++ {
			p := queryPoint(r, 900, 600)
			want := bruteClosest(nw, p)
			if got := nw.ClosestNode(p); got != want {
				t.Fatalf("n=%d ClosestNode(%v) = %d, brute force = %d", n, p, got, want)
			}
		}
		// Exactly on node positions and far corners.
		for _, p := range []geom.Point{nw.Pos(0), geom.Pt(-500, -500), geom.Pt(5000, 5000)} {
			if got, want := nw.ClosestNode(p), bruteClosest(nw, p); got != want {
				t.Fatalf("n=%d ClosestNode(%v) = %d, brute force = %d", n, p, got, want)
			}
		}
	}
}

func TestClosestNodeTieBreaksLowestID(t *testing.T) {
	// Four nodes symmetric around the query point, two radio ranges apart so
	// they land in different grid cells: every pair ties exactly and ID 0
	// must win, as it does under a full scan in ID order.
	pts := []geom.Point{
		geom.Pt(100, 300), geom.Pt(500, 300), geom.Pt(300, 100), geom.Pt(300, 500),
	}
	nw, err := New(FromPoints(pts), 600, 600, 100)
	if err != nil {
		t.Fatal(err)
	}
	center := geom.Pt(300, 300)
	if got, want := nw.ClosestNode(center), bruteClosest(nw, center); got != want || got != 0 {
		t.Fatalf("ClosestNode tie = %d, want %d (lowest ID)", got, want)
	}
}

func TestClosestNodeOutOfRegionNodes(t *testing.T) {
	// Nodes beyond the declared region clamp into border cells; queries near
	// them must still find them.
	pts := []geom.Point{
		geom.Pt(50, 50), geom.Pt(250, 180), geom.Pt(380, -90), geom.Pt(-60, 140),
	}
	nw, err := New(FromPoints(pts), 300, 200, 80)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for q := 0; q < 300; q++ {
		p := queryPoint(r, 300, 200)
		if got, want := nw.ClosestNode(p), bruteClosest(nw, p); got != want {
			t.Fatalf("ClosestNode(%v) = %d, brute force = %d", p, got, want)
		}
	}
}

func TestNodesInDiskMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 40, 300, 1000} {
		nw := randomTestNet(t, r, n, 800, 800, 150)
		for q := 0; q < 300; q++ {
			p := queryPoint(r, 800, 800)
			radius := r.Float64() * 400
			want := bruteDisk(nw, p, radius)
			got := nw.NodesInDisk(p, radius)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d NodesInDisk(%v, %v) = %v, brute force = %v", n, p, radius, got, want)
			}
		}
		// Degenerate radii: zero (only exact hits) and region-covering.
		for _, radius := range []float64{0, 5000} {
			p := queryPoint(r, 800, 800)
			if got, want := nw.NodesInDisk(p, radius), bruteDisk(nw, p, radius); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d NodesInDisk(%v, %v) = %v, brute force = %v", n, p, radius, got, want)
			}
		}
		// Zero radius exactly on a node still returns that node.
		if got := nw.NodesInDisk(nw.Pos(0), 0); len(got) == 0 {
			t.Fatal("NodesInDisk(node pos, 0) missed the node itself")
		}
	}
}

func TestNodesInDiskOutOfRegionNodes(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(10, 10), geom.Pt(90, 90), geom.Pt(160, 40), geom.Pt(-30, 70), geom.Pt(70, 220),
	}
	nw, err := New(FromPoints(pts), 100, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	for q := 0; q < 300; q++ {
		p := queryPoint(r, 100, 100)
		radius := r.Float64() * 250
		if got, want := nw.NodesInDisk(p, radius), bruteDisk(nw, p, radius); !reflect.DeepEqual(got, want) {
			t.Fatalf("NodesInDisk(%v, %v) = %v, brute force = %v", p, radius, got, want)
		}
	}
}
