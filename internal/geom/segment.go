package geom

import "math"

// Segment is a closed line segment between two endpoints.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the segment's Euclidean length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment's midpoint.
func (s Segment) Midpoint() Point { return Midpoint(s.A, s.B) }

// Contains reports whether p lies on the segment (within Eps).
func (s Segment) Contains(p Point) bool {
	if Orientation(s.A, s.B, p) != 0 {
		return false
	}
	return p.X >= math.Min(s.A.X, s.B.X)-Eps && p.X <= math.Max(s.A.X, s.B.X)+Eps &&
		p.Y >= math.Min(s.A.Y, s.B.Y)-Eps && p.Y <= math.Max(s.A.Y, s.B.Y)+Eps
}

// ProperlyIntersects reports whether segments s and t cross at a single
// interior point of both. Shared endpoints and touching configurations do not
// count; this is the predicate used to verify planarity of extracted graphs.
func (s Segment) ProperlyIntersects(t Segment) bool {
	o1 := Orientation(s.A, s.B, t.A)
	o2 := Orientation(s.A, s.B, t.B)
	o3 := Orientation(t.A, t.B, s.A)
	o4 := Orientation(t.A, t.B, s.B)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// Intersects reports whether segments s and t share at least one point,
// including endpoint touching and collinear overlap.
func (s Segment) Intersects(t Segment) bool {
	if s.ProperlyIntersects(t) {
		return true
	}
	return s.Contains(t.A) || s.Contains(t.B) || t.Contains(s.A) || t.Contains(s.B)
}

// DistToPoint returns the distance from p to the closest point of the
// segment.
func (s Segment) DistToPoint(p Point) float64 {
	ab := s.B.Sub(s.A)
	den := ab.Norm2()
	if den <= Eps*Eps {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(ab) / den
	t = math.Max(0, math.Min(1, t))
	return p.Dist(s.A.Add(ab.Scale(t)))
}

// CrossingPoint returns the intersection point of the lines supporting s and
// t. ok is false for parallel or degenerate configurations.
func (s Segment) CrossingPoint(t Segment) (Point, bool) {
	return lineIntersection(s.A, s.B, t.A, t.B)
}

// GabrielDisk is the Gabriel-graph witness region of a segment ab: the open
// disk with diameter ab, shrunk by Eps. Build it once per candidate edge and
// test every candidate witness against it.
type GabrielDisk struct {
	c  Point   // midpoint of ab
	r2 float64 // |ab|²/4 − Eps
}

// NewGabrielDisk returns the Gabriel witness disk of segment ab. It is
// symmetric in a and b, bit for bit.
func NewGabrielDisk(a, b Point) GabrielDisk {
	return GabrielDisk{c: Midpoint(a, b), r2: a.Dist2(b)/4 - Eps}
}

// Contains reports whether p lies strictly inside the disk.
func (d GabrielDisk) Contains(p Point) bool { return d.c.Dist2(p) < d.r2 }

// Lune is the Relative-Neighborhood-Graph witness region of a segment ab:
// the intersection of the open disks centered at a and at b with radius
// d(a,b), shrunk by Eps. Build it once per candidate edge and test every
// candidate witness against it.
type Lune struct {
	a, b Point
	r2   float64 // |ab|² − Eps
}

// NewLune returns the lune of segment ab. It is symmetric in a and b, bit
// for bit.
func NewLune(a, b Point) Lune { return Lune{a: a, b: b, r2: a.Dist2(b) - Eps} }

// Contains reports whether p lies strictly inside the lune.
func (l Lune) Contains(p Point) bool { return l.a.Dist2(p) < l.r2 && l.b.Dist2(p) < l.r2 }
