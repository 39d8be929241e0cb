package geom

import (
	"math/rand"
	"testing"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	almostEq(t, s.Length(), 5, 1e-12, "Length")
	if !s.Midpoint().Eq(Pt(1.5, 2)) {
		t.Errorf("Midpoint = %v", s.Midpoint())
	}
}

func TestSegmentContains(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	if !s.Contains(Pt(5, 0)) {
		t.Error("interior point")
	}
	if !s.Contains(Pt(0, 0)) || !s.Contains(Pt(10, 0)) {
		t.Error("endpoints")
	}
	if s.Contains(Pt(11, 0)) {
		t.Error("collinear but beyond")
	}
	if s.Contains(Pt(5, 1)) {
		t.Error("off-line point")
	}
}

func TestProperIntersection(t *testing.T) {
	x := Seg(Pt(0, 0), Pt(2, 2))
	cases := []struct {
		name string
		s    Segment
		want bool
	}{
		{"crossing", Seg(Pt(0, 2), Pt(2, 0)), true},
		{"disjoint", Seg(Pt(3, 3), Pt(4, 4)), false},
		{"shared endpoint", Seg(Pt(2, 2), Pt(3, 0)), false},
		{"touching mid", Seg(Pt(1, 1), Pt(2, 0)), false},
		{"parallel", Seg(Pt(0, 1), Pt(2, 3)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := x.ProperlyIntersects(tc.s); got != tc.want {
				t.Fatalf("ProperlyIntersects = %v, want %v", got, tc.want)
			}
			if got := tc.s.ProperlyIntersects(x); got != tc.want {
				t.Fatalf("symmetric ProperlyIntersects = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestIntersectsIncludesTouching(t *testing.T) {
	x := Seg(Pt(0, 0), Pt(2, 2))
	if !x.Intersects(Seg(Pt(2, 2), Pt(3, 0))) {
		t.Error("shared endpoint should intersect")
	}
	if !x.Intersects(Seg(Pt(1, 1), Pt(5, 1))) {
		t.Error("touching at interior point should intersect")
	}
	if x.Intersects(Seg(Pt(5, 5), Pt(6, 6))) {
		t.Error("disjoint segments should not intersect")
	}
	if !x.Intersects(Seg(Pt(1, 1), Pt(3, 3))) {
		t.Error("collinear overlap should intersect")
	}
}

func TestDistToPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	almostEq(t, s.DistToPoint(Pt(5, 3)), 3, 1e-12, "perpendicular")
	almostEq(t, s.DistToPoint(Pt(-3, 4)), 5, 1e-12, "beyond A")
	almostEq(t, s.DistToPoint(Pt(13, 4)), 5, 1e-12, "beyond B")
	deg := Seg(Pt(1, 1), Pt(1, 1))
	almostEq(t, deg.DistToPoint(Pt(4, 5)), 5, 1e-12, "degenerate segment")
}

func TestGabrielAndLuneWitness(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	disk, lune := NewGabrielDisk(a, b), NewLune(a, b)
	if !disk.Contains(Pt(5, 1)) {
		t.Error("point near midpoint should be in Gabriel disk")
	}
	if disk.Contains(Pt(5, 6)) {
		t.Error("distant point should be outside Gabriel disk")
	}
	if disk.Contains(Pt(0, 0)) {
		t.Error("endpoint is on the boundary, not strictly inside")
	}
	if !lune.Contains(Pt(5, 1)) {
		t.Error("point near midpoint should be inside the lune")
	}
	if lune.Contains(Pt(1, 1)) != (a.Dist2(Pt(1, 1)) < 100 && b.Dist2(Pt(1, 1)) < 100) {
		t.Error("lune membership mismatch")
	}
	// The Gabriel disk is a subset of the lune. Verify disk ⊆ lune on
	// random points.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p := Pt(r.Float64()*20-5, r.Float64()*20-10)
		if disk.Contains(p) && !lune.Contains(p) {
			t.Fatalf("Gabriel disk must be contained in the lune; %v violates", p)
		}
	}
}

// TestWitnessRegionsSymmetric pins the property planarization's edge-once
// build rests on: both witness regions of segment ab are those of ba, bit
// for bit, so the two ends of an edge always reach the same verdict.
func TestWitnessRegionsSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := Pt(r.Float64()*2e4, r.Float64()*2e4)
		b := a.Add(Pt(r.Float64()*300-150, r.Float64()*300-150))
		if NewGabrielDisk(a, b) != NewGabrielDisk(b, a) {
			t.Fatalf("Gabriel disk of %v %v is not symmetric", a, b)
		}
		p := a.Add(Pt(r.Float64()*300-150, r.Float64()*300-150))
		if NewLune(a, b).Contains(p) != NewLune(b, a).Contains(p) {
			t.Fatalf("lune of %v %v disagrees with its mirror at %v", a, b, p)
		}
	}
}

func TestCrossingPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 4))
	u := Seg(Pt(0, 4), Pt(4, 0))
	p, ok := s.CrossingPoint(u)
	if !ok || !p.Eq(Pt(2, 2)) {
		t.Fatalf("CrossingPoint = %v ok=%v", p, ok)
	}
}
