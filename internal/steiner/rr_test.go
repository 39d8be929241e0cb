package steiner

import (
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func TestReductionRatioBounds(t *testing.T) {
	// Property from §3.1: 0 ≤ RR < 1/2 for all configurations.
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		s := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		u := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		v := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		rr := ReductionRatio(s, u, v)
		if rr < -1e-9 || rr >= 0.5 {
			t.Fatalf("RR(%v,%v,%v) = %v out of [0, 0.5)", s, u, v, rr)
		}
	}
}

func TestReductionRatioDegenerate(t *testing.T) {
	s := geom.Pt(0, 0)
	if rr := ReductionRatio(s, s, s); rr != 0 {
		t.Fatalf("all-coincident RR = %v, want 0", rr)
	}
	// One destination at the source: tree must route through s, no saving
	// beyond the shared point.
	if rr := ReductionRatio(s, s, geom.Pt(10, 0)); math.Abs(rr) > 1e-9 {
		t.Fatalf("dest-at-source RR = %v, want 0", rr)
	}
}

func TestReductionRatioDistanceMonotonicity(t *testing.T) {
	// §3.1 property 2 (Figure 2a): equidistant pairs with the same
	// separation have larger RR when they are further from the source.
	s := geom.Pt(0, 0)
	const halfSep = 20.0
	prev := -1.0
	for d := 50.0; d <= 1000; d += 50 {
		u := geom.Pt(d, halfSep)
		v := geom.Pt(d, -halfSep)
		rr := ReductionRatio(s, u, v)
		if rr <= prev {
			t.Fatalf("RR not increasing with distance: RR(d=%v) = %v, previous %v", d, rr, prev)
		}
		prev = rr
	}
}

func TestReductionRatioAngleMonotonicity(t *testing.T) {
	// §3.1 property 3 (Figure 2b): at fixed distances, smaller angle between
	// the two source–destination segments gives larger RR.
	// Beyond 120 degrees the Steiner point collapses onto the source and RR
	// is identically 0, so the strict comparison only applies below 2π/3.
	s := geom.Pt(0, 0)
	const radius = 300.0
	prev := 1.0
	for angle := 0.15; angle < 2*math.Pi/3; angle += 0.2 {
		u := geom.Pt(radius, 0)
		v := geom.Pt(radius*math.Cos(angle), radius*math.Sin(angle))
		rr := ReductionRatio(s, u, v)
		if rr >= prev {
			t.Fatalf("RR not decreasing with angle: RR(angle=%v) = %v, previous %v", angle, rr, prev)
		}
		prev = rr
	}
}

func TestReductionRatioPointReturnsConsistentSteiner(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		s := geom.Pt(r.Float64()*100, r.Float64()*100)
		u := geom.Pt(r.Float64()*100, r.Float64()*100)
		v := geom.Pt(r.Float64()*100, r.Float64()*100)
		rr, pt := ReductionRatioPoint(s, u, v)
		want := geom.SteinerPoint(s, u, v)
		if !pt.Eq(want) {
			t.Fatalf("Steiner point mismatch: %v vs %v", pt, want)
		}
		direct := s.Dist(u) + s.Dist(v)
		if direct > geom.Eps {
			through := s.Dist(pt) + pt.Dist(u) + pt.Dist(v)
			if math.Abs((1-through/direct)-rr) > 1e-12 {
				t.Fatalf("rr inconsistent with returned point")
			}
		}
	}
}

func TestReductionRatioSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		s := geom.Pt(r.Float64()*100, r.Float64()*100)
		u := geom.Pt(r.Float64()*100, r.Float64()*100)
		v := geom.Pt(r.Float64()*100, r.Float64()*100)
		if d := math.Abs(ReductionRatio(s, u, v) - ReductionRatio(s, v, u)); d > 1e-9 {
			t.Fatalf("RR not symmetric in (u,v): delta %v", d)
		}
	}
}

// TestReductionRatioUpperBound checks that reductionRatioBound, slack
// included, is never below the float ReductionRatioPoint it stands in for,
// in either argument order: on random triples at three scales and on the
// shapes where the bound is tight or the construction degenerates —
// collinear triples (the bound is exact when u lies between s and v),
// coincident points, a 120° or wider angle at any vertex, and a destination
// at the source.
func TestReductionRatioUpperBound(t *testing.T) {
	check := func(s, u, v geom.Point) {
		t.Helper()
		ub := reductionRatioBound(s.Dist(u), s.Dist(v), u.Dist(v))
		for _, p := range [][2]geom.Point{{u, v}, {v, u}} {
			if rr, _ := ReductionRatioPoint(s, p[0], p[1]); rr > ub {
				t.Fatalf("RR(%v, %v, %v) = %v above bound %v", s, p[0], p[1], rr, ub)
			}
		}
	}
	r := rand.New(rand.NewSource(31))
	for _, scale := range []float64{1, 1000, 1e6} {
		pt := func() geom.Point { return geom.Pt(r.Float64()*scale, r.Float64()*scale) }
		for i := 0; i < 5000; i++ {
			s, u, v := pt(), pt(), pt()
			check(s, u, v)
			// Collinear: u and v on the ray from s through a random point,
			// on either side of s, and with s between them.
			d := pt().Sub(s)
			a, b := r.Float64()*3-1, r.Float64()*3-1
			check(s, s.Add(d.Scale(a)), s.Add(d.Scale(b)))
			// Coincident and source-coincident.
			check(s, u, u)
			check(s, s, v)
			check(s, s, s)
			// A 120° or wider angle at s, then at u.
			dir := geom.Pt(1, 0).Rotate(r.Float64() * 2 * math.Pi)
			wide := (2*math.Pi/3 + r.Float64()*math.Pi/3)
			du, dv := r.Float64()*scale, r.Float64()*scale
			check(s, s.Add(dir.Scale(du)), s.Add(dir.Rotate(wide).Scale(dv)))
			check(s.Add(dir.Scale(du)), s, s.Add(dir.Rotate(wide).Scale(dv)))
		}
	}
}
