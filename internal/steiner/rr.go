package steiner

import "gmp/internal/geom"

// ReductionRatio computes the paper's §3.1 measure for a source s and a
// destination pair (u, v):
//
//	RR(s, u, v) = 1 - (d(s,t) + d(t,u) + d(t,v)) / (d(s,u) + d(s,v))
//
// where t is the exact Euclidean Steiner (Fermat) point of {s, u, v}. The
// ratio is the fractional tree-length saving obtained by letting u and v
// share the subpath s→t instead of using two direct edges; it is always
// below 1/2, grows with the distance of the pair from the source, and grows
// as the angle ∠(u, s, v) shrinks — the two observations that guide rrSTR.
//
// Degenerate input (both destinations collocated with the source) yields 0.
func ReductionRatio(s, u, v geom.Point) float64 {
	rr, _ := ReductionRatioPoint(s, u, v)
	return rr
}

// ReductionRatioPoint is ReductionRatio but also returns the Steiner point t,
// so callers that need both avoid recomputing the Fermat construction. Like
// geom.SteinerPoint, the result is not bit-symmetric in u and v: swapping
// them can change the last bits of both the ratio and t.
func ReductionRatioPoint(s, u, v geom.Point) (float64, geom.Point) {
	direct := s.Dist(u) + s.Dist(v)
	if direct <= geom.Eps {
		return 0, s
	}
	t := geom.SteinerPoint(s, u, v)
	through := s.Dist(t) + t.Dist(u) + t.Dist(v)
	return 1 - through/direct, t
}

// ratioSlack is the absolute slack reductionRatioBound adds to its bound. The
// bound and ReductionRatioPoint each round to within a few ulps of 1, and the
// bound is exact for collinear triples with u between s and v, so the slack
// must cover that rounding; 1e-9 does by several orders of magnitude.
const ratioSlack = 1e-9

// reductionRatioBound returns an upper bound on ReductionRatio(s, u, v) from
// the three pairwise distances dsu = d(s,u), dsv = d(s,v) and duv = d(u,v),
// without constructing the Steiner point. For any point t, the triangle
// inequalities d(s,t)+d(t,u) ≥ d(s,u), d(s,t)+d(t,v) ≥ d(s,v) and
// d(t,u)+d(t,v) ≥ d(u,v) sum to 2·(d(s,t)+d(t,u)+d(t,v)) ≥ dsu+dsv+duv, so
//
//	RR(s, u, v) ≤ (dsu + dsv − duv) / (2·(dsu + dsv)).
//
// The bound holds for whatever point geom.SteinerPoint returns, and ratioSlack
// absorbs the rounding of both computations.
func reductionRatioBound(dsu, dsv, duv float64) float64 {
	direct := dsu + dsv
	if direct <= geom.Eps {
		return ratioSlack // ReductionRatioPoint's degenerate ratio is 0
	}
	return (direct-duv)/(2*direct) + ratioSlack
}
