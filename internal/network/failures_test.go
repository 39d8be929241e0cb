package network

import (
	"math/rand"
	"reflect"
	"testing"

	"gmp/internal/geom"
)

func TestWithFailuresIsolatesNodes(t *testing.T) {
	nodes := FromPoints([]geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0), geom.Pt(300, 0),
	})
	nw, err := New(nodes, 400, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	degraded := nw.WithFailures([]int{1})

	if degraded.Alive(1) {
		t.Fatal("node 1 should be down")
	}
	if !degraded.Alive(0) || !degraded.Alive(2) {
		t.Fatal("other nodes should be alive")
	}
	if degraded.Degree(1) != 0 {
		t.Fatalf("dead node degree = %d", degraded.Degree(1))
	}
	for _, n := range degraded.Neighbors(0) {
		if n == 1 {
			t.Fatal("dead node still listed as neighbor")
		}
	}
	if degraded.InRange(0, 1) || degraded.InRange(1, 2) {
		t.Fatal("dead node must not be in range of anyone")
	}
	if !degraded.InRange(2, 3) {
		t.Fatal("live link 2-3 (100 m apart) must survive")
	}
}

// TestWithFailuresUnionsChains pins that a failure view of a failure view
// keeps the parent's dead nodes: the chain in either order is the view of
// the union, on Alive, InRange and Neighbors.
func TestWithFailuresUnionsChains(t *testing.T) {
	nw, err := New(FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0)}), 300, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	union := nw.WithFailures([]int{0, 2})
	for name, v := range map[string]*Network{
		"0 then 2": nw.WithFailures([]int{0}).WithFailures([]int{2}),
		"2 then 0": nw.WithFailures([]int{2}).WithFailures([]int{0}),
	} {
		if v.Alive(0) || v.Alive(2) || !v.Alive(1) {
			t.Errorf("%s: alive %v %v %v, want false true false", name, v.Alive(0), v.Alive(1), v.Alive(2))
		}
		for a := 0; a < 3; a++ {
			if !reflect.DeepEqual(v.Neighbors(a), union.Neighbors(a)) {
				t.Errorf("%s: Neighbors(%d) = %v, union %v", name, a, v.Neighbors(a), union.Neighbors(a))
			}
			for b := 0; b < 3; b++ {
				if v.InRange(a, b) != union.InRange(a, b) {
					t.Errorf("%s: InRange(%d, %d) = %v, union %v", name, a, b, v.InRange(a, b), union.InRange(a, b))
				}
			}
		}
	}
}

func TestWithFailuresOriginalUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	nw, err := New(DeployUniform(200, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int, nw.Len())
	for i := range before {
		before[i] = nw.Degree(i)
	}
	_ = nw.WithFailures([]int{0, 5, 10, 15})
	for i := range before {
		if nw.Degree(i) != before[i] {
			t.Fatalf("original network mutated at node %d", i)
		}
	}
	if !nw.Alive(5) {
		t.Fatal("original must report all nodes alive")
	}
	if len(nw.AliveIDs()) != nw.Len() {
		t.Fatal("original AliveIDs must cover everything")
	}
}

func TestWithFailuresAliveIDs(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	nw, err := New(DeployUniform(50, 500, 500, r), 500, 500, 150)
	if err != nil {
		t.Fatal(err)
	}
	degraded := nw.WithFailures([]int{3, 7, 49})
	alive := degraded.AliveIDs()
	if len(alive) != 47 {
		t.Fatalf("alive = %d", len(alive))
	}
	for _, id := range alive {
		if id == 3 || id == 7 || id == 49 {
			t.Fatalf("dead node %d in AliveIDs", id)
		}
	}
}

func TestWithFailuresOutOfRangeIDsIgnored(t *testing.T) {
	nodes := FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(50, 0)})
	nw, err := New(nodes, 100, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	degraded := nw.WithFailures([]int{-1, 99})
	if !degraded.Alive(0) || !degraded.Alive(1) {
		t.Fatal("bogus failure IDs must be ignored")
	}
	if degraded.Degree(0) != 1 {
		t.Fatal("links must survive bogus failure IDs")
	}
}

func TestWithFailuresSymmetry(t *testing.T) {
	// Degraded adjacency must stay symmetric.
	r := rand.New(rand.NewSource(41))
	nw, err := New(DeployUniform(300, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	failed := r.Perm(300)[:60]
	degraded := nw.WithFailures(failed)
	for u := 0; u < degraded.Len(); u++ {
		for _, v := range degraded.Neighbors(u) {
			found := false
			for _, w := range degraded.Neighbors(int(v)) {
				if int(w) == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric degraded link (%d,%d)", u, v)
			}
		}
	}
}

func TestWithFailuresKeepsTiles(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	nw, err := New(DeployUniform(300, 1500, 1500, r), 1500, 1500, 150)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tiles() < 2 {
		t.Fatalf("want a multi-tile network, got %d tiles", nw.Tiles())
	}
	degraded := nw.WithFailures([]int{0, 5, 10})
	if degraded.Tiles() != nw.Tiles() {
		t.Fatalf("view has %d tiles, network %d", degraded.Tiles(), nw.Tiles())
	}
	for id := 0; id < nw.Len(); id++ {
		if degraded.Tile(id) != nw.Tile(id) {
			t.Fatalf("node %d: view tile %d, network tile %d", id, degraded.Tile(id), nw.Tile(id))
		}
	}
	for ti := 0; ti < nw.Tiles(); ti++ {
		if !reflect.DeepEqual(degraded.TileNodes(ti), nw.TileNodes(ti)) {
			t.Fatalf("tile %d: view nodes %v, network %v", ti, degraded.TileNodes(ti), nw.TileNodes(ti))
		}
	}
}
