package routing

// The next-hop scans skip neighbors by a squared-distance cut and, in GMP's
// scan, test the pivot distance before loop-freedom. These tests hold both
// to the full scans they replaced, kept here as references: every neighbor's
// exact distance, and for GMP every neighbor's total distance to the group
// from a memo-style distance table, before any comparison.

import (
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// scanView is a bare NodeView over explicit positions: node 0 decides, and
// every other node is its neighbor, in ID order.
type scanView struct {
	pos  []geom.Point
	nbrs []int32
	s    view.Scratch
}

func newScanView(self geom.Point, nbrs ...geom.Point) *scanView {
	v := &scanView{pos: append([]geom.Point{self}, nbrs...)}
	for i := range nbrs {
		v.nbrs = append(v.nbrs, int32(i+1))
	}
	return v
}

func (v *scanView) Self() int                          { return 0 }
func (v *scanView) Pos() geom.Point                    { return v.pos[0] }
func (v *scanView) Neighbors() []int32                 { return v.nbrs }
func (v *scanView) NbrPos(id int) geom.Point           { return v.pos[id] }
func (v *scanView) NbrPosOK(id int) (geom.Point, bool) { return v.pos[id], true }
func (v *scanView) Degree() int                        { return len(v.nbrs) }
func (v *scanView) Range() float64                     { return 150 }
func (v *scanView) PlanarSelfPos() geom.Point          { return v.pos[0] }
func (v *scanView) PlanarNeighbors() []int             { return nil }
func (v *scanView) PlanarPos(id int) geom.Point        { return v.pos[id] }
func (v *scanView) PlanarBearings() []float64          { return nil }
func (v *scanView) Scratch() *view.Scratch             { return &v.s }

// fullGroupNextHop is GMP's Figure 7 step 4 as a full scan: the node's and
// every neighbor's distance to every group destination in one table (row 0
// the node, row i+1 neighbor i), each total summed in group order, and the
// loop-freedom test before the pivot distance.
func fullGroupNextHop(v view.NodeView, pivot geom.Point, group []steiner.Dest) int {
	nbrs := v.Neighbors()
	table := make([][]float64, len(nbrs)+1)
	for r := range table {
		p := v.Pos()
		if r > 0 {
			p = v.NbrPos(int(nbrs[r-1]))
		}
		table[r] = make([]float64, len(group))
		for c, d := range group {
			table[r][c] = p.Dist(d.Pos)
		}
	}
	sumRow := func(r int) float64 {
		var total float64
		for _, d := range table[r] {
			total += d
		}
		return total
	}
	curTotal := sumRow(0)
	best, bestD := -1, math.Inf(1)
	for i, n := range nbrs {
		np := v.NbrPos(int(n))
		if sumRow(i+1) >= curTotal {
			continue
		}
		if d := np.Dist(pivot); d < bestD {
			best, bestD = int(n), d
		}
	}
	return best
}

// fullGreedyNextHop is the greedy step as a full scan.
func fullGreedyNextHop(v view.NodeView, target geom.Point) int {
	best, bestD := -1, v.Pos().Dist(target)
	for _, n := range v.Neighbors() {
		if d := v.NbrPos(int(n)).Dist(target); d < bestD {
			best, bestD = int(n), d
		}
	}
	return best
}

// checkScans compares both scans with their full references: the greedy
// scan toward the pivot and toward every group destination, and GMP's scan
// toward the pivot for the whole group and for each of its prefixes.
func checkScans(t *testing.T, v *scanView, pivot geom.Point, group []steiner.Dest) {
	t.Helper()
	targets := []geom.Point{pivot}
	for _, d := range group {
		targets = append(targets, d.Pos)
	}
	for _, tg := range targets {
		if got, want := greedyNextHop(v, tg), fullGreedyNextHop(v, tg); got != want {
			t.Fatalf("greedyNextHop(%v) = %d, full scan %d\nnode %v\nneighbors %v", tg, got, want, v.pos[0], v.pos[1:])
		}
	}
	for k := 1; k <= len(group); k++ {
		if got, want := groupNextHop(v, pivot, group[:k]), fullGroupNextHop(v, pivot, group[:k]); got != want {
			t.Fatalf("groupNextHop(%v, %v) = %d, full scan %d\nnode %v\nneighbors %v", pivot, group[:k], got, want, v.pos[0], v.pos[1:])
		}
	}
}

// randomScan builds a node with up to 80 neighbors inside radius r of it,
// and a pivot and a group of up to 12 destinations within 8r, all around
// the center c. On a lattice every coordinate is a multiple of r/15, so
// equal distances — ties — are common.
func randomScan(rng *rand.Rand, c geom.Point, r float64, lattice bool) (*scanView, geom.Point, []steiner.Dest) {
	pt := func(spread float64) geom.Point {
		x, y := (2*rng.Float64()-1)*spread, (2*rng.Float64()-1)*spread
		if lattice {
			step := r / 15
			x, y = math.Round(x/step)*step, math.Round(y/step)*step
		}
		return geom.Pt(c.X+x, c.Y+y)
	}
	nbrs := make([]geom.Point, rng.Intn(81))
	for i := range nbrs {
		nbrs[i] = pt(r)
	}
	v := newScanView(pt(r/4), nbrs...)
	group := make([]steiner.Dest, 1+rng.Intn(12))
	for i := range group {
		group[i] = steiner.Dest{Pos: pt(8 * r), Label: i}
	}
	return v, pt(8 * r), group
}

func TestNextHopMatchesFullScan(t *testing.T) {
	scales := []float64{150, 1, 1e-3, 1e200, 1e-200,
		0x1p400, 0x1p-400, 0x1p399, 0x1p-399, 0x1p401, 0x1p-401}
	for _, r := range scales {
		for _, c := range []geom.Point{{}, geom.Pt(3*r, -5*r)} {
			for _, lattice := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(math.Float64bits(r)) ^ int64(math.Float64bits(c.X))))
				for i := 0; i < 60; i++ {
					v, pivot, group := randomScan(rng, c, r, lattice)
					checkScans(t, v, pivot, group)
				}
			}
		}
	}
	// The 10 m tie lattice: a node at the origin and every lattice point
	// within 150 m as a neighbor, toward lattice targets.
	var nbrs []geom.Point
	for x := -150.0; x <= 150; x += 10 {
		for y := -150.0; y <= 150; y += 10 {
			if p := geom.Pt(x, y); (p != geom.Point{}) && p.Dist(geom.Point{}) <= 150 {
				nbrs = append(nbrs, p)
			}
		}
	}
	v := newScanView(geom.Point{}, nbrs...)
	for x := -400.0; x <= 400; x += 50 {
		for y := -400.0; y <= 400; y += 50 {
			pivot := geom.Pt(x, y)
			checkScans(t, v, pivot, []steiner.Dest{{Pos: pivot, Label: 1}, {Pos: geom.Pt(-y, x), Label: 2}, {Pos: geom.Pt(y, -x), Label: 3}})
		}
	}
}

// TestNextHopTies pins the tie rule and the loop-freedom skip on
// hand-built views.
func TestNextHopTies(t *testing.T) {
	// Two neighbors at equal distance from the target: the first wins,
	// whichever of them has the lower ID.
	tie := newScanView(geom.Pt(0, 0), geom.Pt(50, 40), geom.Pt(50, -40))
	target := geom.Pt(200, 0)
	group := []steiner.Dest{{Pos: target, Label: 7}}
	if got := greedyNextHop(tie, target); got != 1 {
		t.Errorf("greedy tie: got neighbor %d, want the first (1)", got)
	}
	if got := groupNextHop(tie, target, group); got != 1 {
		t.Errorf("group tie: got neighbor %d, want the first (1)", got)
	}
	tie.pos[1], tie.pos[2] = tie.pos[2], tie.pos[1]
	if got := greedyNextHop(tie, target); got != 1 {
		t.Errorf("greedy tie, swapped: got neighbor %d, want the first (1)", got)
	}

	// A neighbor at the pivot that takes the group away is never chosen,
	// even as the pivot's closest neighbor; a farther one that brings the
	// group nearer is.
	lf := newScanView(geom.Pt(0, 0), geom.Pt(-100, 0), geom.Pt(0, 100))
	pivot := geom.Pt(-120, 0)
	far := []steiner.Dest{{Pos: geom.Pt(200, 200), Label: 1}, {Pos: geom.Pt(300, 300), Label: 2}}
	if got := groupNextHop(lf, pivot, far); got != 2 {
		t.Errorf("loop-freedom: got neighbor %d, want 2 (neighbor 1 is nearer the pivot but farther from the group)", got)
	}
	if got := groupNextHop(newScanView(geom.Pt(0, 0), geom.Pt(-100, 0)), pivot, far); got != -1 {
		t.Errorf("loop-freedom: got neighbor %d, want -1 (no neighbor brings the group nearer)", got)
	}

	// Distances 1 ulp apart, the farther neighbor first: the nearer one
	// wins, in both scans. On the x axis math.Hypot is exact.
	for _, x := range []float64{100, 1e-150, 1e150, 0x1p-399, 0x1p399} {
		far, near := geom.Pt(x, 0), geom.Pt(math.Nextafter(x, 0), 0)
		ulp := newScanView(geom.Pt(3*x, 0), far, near)
		if got := greedyNextHop(ulp, geom.Point{}); got != 2 {
			t.Errorf("x=%g: greedy picked %d, want the neighbor 1 ulp nearer (2)", x, got)
		}
		if got := groupNextHop(ulp, geom.Point{}, []steiner.Dest{{Pos: geom.Point{}, Label: 1}}); got != 2 {
			t.Errorf("x=%g: group scan picked %d, want the neighbor 1 ulp nearer (2)", x, got)
		}
	}
}

// FuzzNextHopMatchesFullScan compares both scans with their full references
// on random views at a fuzzed scale, off or on a tie lattice.
func FuzzNextHopMatchesFullScan(f *testing.F) {
	f.Add(int64(1), int16(0), false)
	f.Add(int64(2), int16(0), true)
	f.Add(int64(3), int16(400), false)
	f.Add(int64(4), int16(-400), true)
	f.Add(int64(5), int16(664), false)
	f.Fuzz(func(t *testing.T, seed int64, exp int16, lattice bool) {
		r := math.Ldexp(1, int(exp)%1000)
		rng := rand.New(rand.NewSource(seed))
		c := geom.Pt(r*float64(rng.Intn(9)-4), r*float64(rng.Intn(9)-4))
		v, pivot, group := randomScan(rng, c, r, lattice)
		checkScans(t, v, pivot, group)
	})
}
