package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// trapBed builds the C-shaped greedy trap used to force perimeter mode.
func trapBed(t *testing.T, seed int64) (*testBed, int, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	center := geom.Pt(500, 500)
	trap := network.CShapedObstacle(center, 180, 360)
	nodes := network.DeployUniformExclude(900, 1000, 1000, trap, r)
	bed := newBed(t, nodes, 1000, 1000, 150, 150)
	src := bed.nw.ClosestNode(center)
	dst := bed.nw.ClosestNode(geom.Pt(940, 500))
	return bed, src, dst
}

func TestPBMEscapesTrapViaPerimeter(t *testing.T) {
	bed, src, dst := trapBed(t, 241)
	pbm := NewPBM(0.3)
	m := bed.en.RunTask(pbm, src, []int{dst})
	if m.Failed() {
		t.Fatalf("PBM failed to escape the trap: %+v", m)
	}
}

func TestPBMPerimeterWithMixedDestinations(t *testing.T) {
	// One destination behind the wall (void), one inside the pocket
	// (routable): PBM must serve both — the routable one greedily, the
	// void one via its perimeter group.
	bed, src, far := trapBed(t, 251)
	near := bed.nw.ClosestNode(geom.Pt(540, 540)) // in the pocket
	if near == src {
		near = bed.nw.ClosestNode(geom.Pt(460, 460))
	}
	pbm := NewPBM(0.2)
	m := bed.en.RunTask(pbm, src, []int{near, far})
	if m.Failed() {
		t.Fatalf("PBM mixed task failed: delivered %v of %d", m.Delivered, m.DestCount)
	}
}

func TestGRDEscapesTrapViaPerimeter(t *testing.T) {
	bed, src, dst := trapBed(t, 257)
	grd := NewGRD()
	m := bed.en.RunTask(grd, src, []int{dst})
	if m.Failed() {
		t.Fatalf("GRD failed to escape the trap: %+v", m)
	}
}

func TestGeocastName(t *testing.T) {
	if got := NewGeocast(geom.Pt(0, 0), 10).Name(); got != "GEO" {
		t.Fatalf("Name = %q", got)
	}
}

func TestPBMLambdaAccessor(t *testing.T) {
	if got := NewPBM(0.4).Lambda(); got != 0.4 {
		t.Fatalf("Lambda = %v", got)
	}
}

func TestPBMGreedySubsetLargeCandidateSet(t *testing.T) {
	// More than pbmExactLimit distinct per-destination closest neighbors
	// forces the greedy subset path: a source at the centre of a dense
	// field, with destinations fanned out in 24 directions.
	bed := denseBed(t, 271, 1000)
	centre := geom.Pt(500, 500)
	src := bed.nw.ClosestNode(centre)
	var dests []int
	for i := 0; i < 24; i++ {
		a := 2 * math.Pi * float64(i) / 24
		d := bed.nw.ClosestNode(geom.Pt(500+450*math.Cos(a), 500+450*math.Sin(a)))
		if d != src && !slices.Contains(dests, d) {
			dests = append(dests, d)
		}
	}
	pbm := NewPBM(0.3)
	// Verify the construction actually exceeds the exact-enumeration cap
	// at the source (otherwise the test loses its purpose).
	s := new(view.Scratch)
	pkt := &sim.Packet{Header: sim.Header{Dests: sortedCopy(dests), Anchor: -1}}
	for _, d := range pkt.Dests {
		pkt.Locs = append(pkt.Locs, bed.nw.Pos(d))
	}
	pbm.Start(view.NewOracle(bed.nw, bed.pg).At(src, s), pkt)
	if cands := s.PBM.Cands; len(cands) <= pbmExactLimit {
		t.Fatalf("only %d candidates; need > %d", len(cands), pbmExactLimit)
	}
	m := bed.en.RunTask(pbm, src, dests)
	if m.InvalidSends != 0 {
		t.Fatal("invalid sends")
	}
	if m.Failed() {
		t.Fatalf("PBM failed with greedy subset: %d/%d", len(m.Delivered), m.DestCount)
	}
}

func TestLGKVoidMidRelay(t *testing.T) {
	// LGK, like LGS, gives up when a relay finds no closer neighbor.
	bed, src, dst := trapBed(t, 277)
	lgk := NewLGK(2)
	m := bed.en.RunTask(lgk, src, []int{dst})
	if !m.Failed() {
		t.Fatal("LGK should fail inside the trap")
	}
	if m.Drops() == 0 {
		t.Fatal("LGK drop not recorded")
	}
}

func TestGMPPartialPerimeterRecovery(t *testing.T) {
	// Two void destinations on opposite far sides of the wall: as the
	// perimeter walk proceeds, typically one group recovers before the
	// other, exercising the §4.1 step-7 partial-recovery branch.
	bed, src, _ := trapBed(t, 281)
	d1 := bed.nw.ClosestNode(geom.Pt(940, 620))
	d2 := bed.nw.ClosestNode(geom.Pt(940, 380))
	gmp := NewGMP()
	m := bed.en.RunTask(gmp, src, []int{d1, d2})
	if m.Failed() {
		t.Fatalf("partial recovery task failed: %v of %d", m.Delivered, m.DestCount)
	}
}
