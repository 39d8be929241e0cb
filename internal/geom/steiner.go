package geom

import "math"

// maxFermatAngle is the 120° threshold of the classical Fermat problem: if a
// triangle has an interior angle of 120° or more, the Fermat point is the
// vertex at that angle.
const maxFermatAngle = 2 * math.Pi / 3

// SteinerPoint returns the exact Euclidean Steiner point (Fermat–Torricelli
// point) of the three points a, b, c: the point t minimizing
// d(t,a)+d(t,b)+d(t,c).
//
// Cases, following the classical construction (paper refs [24, 11]):
//
//   - If any interior angle of triangle abc is ≥ 120°, the Steiner point is
//     the vertex at that angle.
//   - If the points are collinear or degenerate (coincident points), the
//     Steiner point is the middle point of the three.
//   - Otherwise it is the intersection of two Simpson lines: the line from a
//     to the apex of the outward equilateral triangle erected on bc, and the
//     line from b to the apex of the outward equilateral triangle on ca.
//
// The construction treats its arguments asymmetrically, so the result is not
// bit-symmetric in argument order: permuting a, b and c yields the same point
// up to rounding, but not necessarily the same float64 bits. Callers whose
// output must be reproducible bit for bit keep one argument order.
func SteinerPoint(a, b, c Point) Point {
	// Coincident-point degeneracies first: with two coincident points the
	// minimizer is that shared location.
	switch {
	case a.Eq(b):
		return a
	case a.Eq(c):
		return a
	case b.Eq(c):
		return b
	}

	if Collinear(a, b, c) {
		return middleOfThree(a, b, c)
	}

	// 120° rule.
	if AngleAt(a, b, c) >= maxFermatAngle {
		return a
	}
	if AngleAt(b, a, c) >= maxFermatAngle {
		return b
	}
	if AngleAt(c, a, b) >= maxFermatAngle {
		return c
	}

	// Simpson-line intersection. The apex of the outward equilateral triangle
	// on side bc is the rotation of c about b by ±60°, whichever lands on the
	// far side from a.
	apexA := outwardApex(b, c, a)
	apexB := outwardApex(c, a, b)
	t, ok := lineIntersection(a, apexA, b, apexB)
	if !ok {
		// Should not happen for a non-degenerate triangle with all angles
		// < 120°, but fall back to the centroid-seeded Weiszfeld solution so
		// callers always get a sensible point.
		return Weiszfeld([]Point{a, b, c}, Centroid([]Point{a, b, c}), weiszfeldIters)
	}
	return t
}

// SteinerCost returns the length of the optimal three-terminal Steiner tree:
// the summed distance from SteinerPoint(a,b,c) to a, b and c.
func SteinerCost(a, b, c Point) float64 {
	t := SteinerPoint(a, b, c)
	return t.Dist(a) + t.Dist(b) + t.Dist(c)
}

// middleOfThree returns whichever of a, b, c lies between the other two on
// their common line. For collinear points the geometric median is the middle
// point.
func middleOfThree(a, b, c Point) Point {
	// Project on the dominant axis of the bounding box to order the points.
	minX, maxX := math.Min(a.X, math.Min(b.X, c.X)), math.Max(a.X, math.Max(b.X, c.X))
	minY, maxY := math.Min(a.Y, math.Min(b.Y, c.Y)), math.Max(a.Y, math.Max(b.Y, c.Y))
	key := func(p Point) float64 { return p.X }
	if maxY-minY > maxX-minX {
		key = func(p Point) float64 { return p.Y }
	}
	ka, kb, kc := key(a), key(b), key(c)
	switch {
	case (kb <= ka && ka <= kc) || (kc <= ka && ka <= kb):
		return a
	case (ka <= kb && kb <= kc) || (kc <= kb && kb <= ka):
		return b
	default:
		return c
	}
}

// outwardApex returns the apex of the equilateral triangle erected on segment
// pq on the side opposite to the reference point far.
func outwardApex(p, q, far Point) Point {
	a1 := q.RotateAbout(p, math.Pi/3)
	a2 := q.RotateAbout(p, -math.Pi/3)
	if a1.Dist2(far) >= a2.Dist2(far) {
		return a1
	}
	return a2
}

// lineIntersection returns the intersection of the infinite lines through
// (p1,p2) and (q1,q2). ok is false when the lines are parallel or either
// segment is degenerate.
func lineIntersection(p1, p2, q1, q2 Point) (pt Point, ok bool) {
	d1 := p2.Sub(p1)
	d2 := q2.Sub(q1)
	denom := d1.Cross(d2)
	scale := d1.Norm() * d2.Norm()
	if math.Abs(denom) <= Eps*math.Max(1, scale) {
		return Point{}, false
	}
	t := q1.Sub(p1).Cross(d2) / denom
	return p1.Add(d1.Scale(t)), true
}

// weiszfeldIters is the iteration budget of the fallback/oracle solver; the
// geometric median converges linearly, and 128 iterations are ample for
// meter-scale coordinates at float64 precision.
const weiszfeldIters = 128

// Weiszfeld computes the geometric median of pts by Weiszfeld's iteration,
// starting from seed. It is used as a numerical oracle in tests and as the
// last-resort fallback of SteinerPoint; production code paths use the exact
// construction.
func Weiszfeld(pts []Point, seed Point, iters int) Point {
	if len(pts) == 0 {
		return seed
	}
	cur := seed
	for i := 0; i < iters; i++ {
		var num Point
		var denom float64
		onVertex := false
		for _, p := range pts {
			d := cur.Dist(p)
			if d <= Eps {
				// The iteration is undefined at a data point; nudge off it.
				onVertex = true
				break
			}
			w := 1 / d
			num = num.Add(p.Scale(w))
			denom += w
		}
		if onVertex {
			cur = cur.Add(Pt(Eps*100, Eps*100))
			continue
		}
		next := num.Scale(1 / denom)
		if next.Dist(cur) <= Eps {
			return next
		}
		cur = next
	}
	return cur
}
