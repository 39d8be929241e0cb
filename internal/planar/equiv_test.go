package planar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
)

// Deployment shapes for the equivalence tests.
const (
	shapeUniform = iota
	shapeVoid
	shapeCObstacle
	shapeIntGrid // random integer-grid positions: exact ties, coincident nodes
	shapeLattice // regular lattice plus duplicated points: cocircular ties
	numShapes
)

// Views layered on a deployment for the equivalence tests.
const (
	viewPlain = iota
	viewFailures
	viewNoise
	viewNoiseFailures
	numViews
)

// equivNetwork deploys shape with about size nodes and layers view on it.
func equivNetwork(t *testing.T, r *rand.Rand, shape, view, size int) *network.Network {
	t.Helper()
	const side, radio = 900.0, 120.0
	center := geom.Pt(side/2, side/2)
	var nodes []network.Node
	switch shape {
	case shapeUniform:
		nodes = network.DeployUniform(size, side, side, r)
	case shapeVoid:
		nodes = network.DeployUniformWithVoid(size, side, side, center, side/5, r)
	case shapeCObstacle:
		nodes = network.DeployUniformExclude(size, side, side,
			network.CShapedObstacle(center, side/8, side/8+1.2*radio), r)
	case shapeIntGrid:
		// 20 m steps make many pairs exactly radio range apart and many
		// witnesses exactly on a Gabriel circle or lune boundary.
		pts := make([]geom.Point, size)
		for i := range pts {
			pts[i] = geom.Pt(float64(20*r.Intn(46)), float64(20*r.Intn(46)))
		}
		nodes = network.FromPoints(pts)
	default:
		// Every lattice square's far corners lie exactly on the Gabriel
		// circle of its diagonal; duplicated points coincide exactly.
		nodes = network.DeployGrid(15, 15, 60)
		for i := 0; i < size/10; i++ {
			nodes = append(nodes, network.Node{ID: len(nodes), Pos: nodes[r.Intn(225)].Pos})
		}
	}
	nw, err := network.New(nodes, side, side, radio)
	if err != nil {
		t.Fatal(err)
	}
	failed := func() []int {
		var ids []int
		for id := 0; id < nw.Len(); id++ {
			if r.Intn(8) == 0 {
				ids = append(ids, id)
			}
		}
		return ids
	}
	switch view {
	case viewFailures:
		nw = nw.WithFailures(failed())
	case viewNoise:
		nw = nw.WithPositionNoise(15, r)
	case viewNoiseFailures:
		nw = nw.WithPositionNoise(15, r).WithFailures(failed())
	}
	if want := view == viewPlain || view == viewFailures; nw.ReportsTruePositions() != want {
		t.Fatalf("view %d: ReportsTruePositions = %v, want %v", view, !want, want)
	}
	return nw
}

// checkMatchesLocal requires Planarize's rows to equal every node's own
// LocalAdjacency, for both rules. On a view that reports true positions the
// rows are packed, so each must also be capped at its length.
func checkMatchesLocal(t *testing.T, nw *network.Network, label string) {
	t.Helper()
	for _, kind := range []Kind{Gabriel, RelativeNeighborhood} {
		g := Planarize(nw, kind)
		for u := 0; u < nw.Len(); u++ {
			want := LocalAdjacency(nw.Pos(u), nw.Neighbors(u), nw.Pos, kind)
			got := g.Neighbors(u)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %v node %d: Planarize row %v, LocalAdjacency %v", label, kind, u, got, want)
			}
			if nw.ReportsTruePositions() && cap(got) != len(got) {
				t.Fatalf("%s %v node %d: row cap %d exceeds len %d", label, kind, u, cap(got), len(got))
			}
		}
	}
}

// TestPlanarizeMatchesLocal pins the edge-once build to the per-node rule
// it replaces: on every deployment shape and view, each row equals the one
// the node computes from its own neighbor table.
func TestPlanarizeMatchesLocal(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for view := 0; view < numViews; view++ {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed*97 + int64(shape*numViews+view)))
				nw := equivNetwork(t, r, shape, view, 250+150*int(seed))
				checkMatchesLocal(t, nw, fmt.Sprintf("shape %d view %d seed %d", shape, view, seed))
			}
		}
	}
}

func FuzzPlanarizeMatchesLocal(f *testing.F) {
	f.Add(int64(1), uint8(shapeUniform), uint16(400), uint8(viewPlain))
	f.Add(int64(2), uint8(shapeVoid), uint16(300), uint8(viewFailures))
	f.Add(int64(3), uint8(shapeCObstacle), uint16(500), uint8(viewNoise))
	f.Add(int64(4), uint8(shapeIntGrid), uint16(600), uint8(viewNoiseFailures))
	f.Add(int64(5), uint8(shapeLattice), uint16(200), uint8(viewFailures))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, size uint16, view uint8) {
		r := rand.New(rand.NewSource(seed))
		s, v := int(shape)%numShapes, int(view)%numViews
		nw := equivNetwork(t, r, s, v, 20+int(size)%600)
		checkMatchesLocal(t, nw, fmt.Sprintf("shape %d view %d", s, v))
	})
}
