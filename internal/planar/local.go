package planar

import (
	"cmp"
	"slices"
	"sort"

	"gmp/internal/geom"
)

// LocalAdjacency computes one node's planar (GG/RNG) adjacency from purely
// local data: its own position and its 1-hop neighbors with their positions.
// Both rules' witnesses for an edge (u,v) lie within d(u,v) ≤ radio range of
// u, so the neighbor table alone decides every edge — this is the per-node
// computation a real node runs, and Planarize applies it to every node.
//
// The result is sorted counter-clockwise by bearing from upos (ties broken
// by ID), the order the right-hand rule consumes.
func LocalAdjacency(upos geom.Point, nbrs []int32, pos func(int) geom.Point, kind Kind) []int {
	var kept []int
	for _, v := range nbrs {
		vpos := pos(int(v))
		disk, lune := geom.NewGabrielDisk(upos, vpos), geom.NewLune(upos, vpos)
		witnessed := false
		for _, w := range nbrs {
			if w == v {
				continue
			}
			wpos := pos(int(w))
			switch kind {
			case RelativeNeighborhood:
				witnessed = lune.Contains(wpos)
			default:
				witnessed = disk.Contains(wpos)
			}
			if witnessed {
				break
			}
		}
		if !witnessed {
			kept = append(kept, int(v))
		}
	}
	keys := make([]ccwKey, len(kept))
	for i, v := range kept {
		keys[i] = ccwKey{geom.Bearing(upos, pos(v)), v}
	}
	sortCCW(keys, kept)
	return kept
}

// ccwKey is one planar neighbor with its bearing from the row's node.
type ccwKey struct {
	bearing float64
	id      int
}

// sortCCW sorts keys counter-clockwise by bearing, ties broken by ID, and
// writes the sorted IDs into row. Callers compute each bearing once.
func sortCCW(keys []ccwKey, row []int) {
	slices.SortFunc(keys, func(a, b ccwKey) int {
		if c := cmp.Compare(a.bearing, b.bearing); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, k := range keys {
		row[i] = k.id
	}
}

// faceCand is one planar neighbor with its sweep angle from the reference
// bearing.
type faceCand struct {
	id    int
	delta float64
}

// faceCandidates orders a node's planar neighbors for one face step: counter-
// clockwise starting just after the reference bearing (the incoming edge, or
// the target on entry), clockwise under st.Reverse, ties broken by ID. The
// incoming edge itself sorts last (delta 0 → 2π) so a dead end bounces the
// packet back, as the right-hand rule requires. Both face-change sweeps
// consume this order.
func faceCandidates(pos geom.Point, nbrs []int, nbrPos func(int) geom.Point, bearings []float64, st State) []faceCand {
	var ref float64
	if st.Prev == -1 {
		ref = geom.Bearing(pos, st.Target)
	} else {
		ref = geom.Bearing(pos, nbrPos(st.Prev))
	}
	cands := make([]faceCand, 0, len(nbrs))
	for i, n := range nbrs {
		var b float64
		if bearings != nil {
			b = bearings[i]
		} else {
			b = geom.Bearing(pos, nbrPos(n))
		}
		d := geom.CCWDelta(ref, b)
		if st.Reverse {
			// Left-hand rule: sweep clockwise from the reference instead.
			d = geom.CCWDelta(b, ref)
		}
		if n == st.Prev || d < 1e-12 {
			d = 2 * 3.141592653589793
		}
		cands = append(cands, faceCand{n, d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].delta != cands[j].delta {
			return cands[i].delta < cands[j].delta
		}
		return cands[i].id < cands[j].id
	})
	return cands
}

// NextHopLocal advances the right-hand-rule traversal one step using only
// node-local data: the current node's ID and substrate position, its planar
// adjacency in CCW order with a position oracle covering those neighbors
// (and st.Prev, which is always a planar neighbor of cur), and optionally
// the precomputed bearings to each planar neighbor (parallel to nbrs; pass
// nil to compute them on the fly).
//
// This is the traversal core behind NextHop; see NextHop for the rule.
func NextHopLocal(cur int, pos geom.Point, nbrs []int, nbrPos func(int) geom.Point, bearings []float64, st State) (next int, out State, ok bool) {
	if len(nbrs) == 0 {
		return -1, st, false
	}

	cands := faceCandidates(pos, nbrs, nbrPos, bearings, st)

	// Face-change sweep.
	idx := 0
	for sweep := 0; sweep < len(cands); sweep++ {
		n := cands[idx].id
		edge := geom.Seg(pos, nbrPos(n))
		lfd := geom.Seg(st.FaceEntry, st.Target)
		if edge.ProperlyIntersects(lfd) {
			if cross, okc := edge.CrossingPoint(lfd); okc &&
				cross.Dist(st.Target) < st.FaceEntry.Dist(st.Target)-geom.Eps {
				st.FaceEntry = cross
				idx = (idx + 1) % len(cands)
				continue
			}
		}
		break
	}
	chosen := cands[idx].id
	st.Prev = cur
	return chosen, st, true
}

// NextHopLocalFace2 advances one face-routing step with side-aware face
// changes. It orders candidates exactly like NextHopLocal, but where the
// GPSR-style sweep unconditionally skips every edge that crosses the
// FaceEntry→Target segment strictly closer to the target, this variant first
// checks which side of the crossed edge the segment continues on. The
// right-hand tour keeps the current face's interior on the walk's right
// (left under st.Reverse); if the target-side continuation lies on the
// interior side, the segment re-enters the current face, so the walk
// advances FaceEntry and keeps touring it — traversing the crossing edge as
// an ordinary boundary step. Only when the continuation lies on the exterior
// side does the walk switch to the adjacent face (the skip). GPSR's
// unconditional skip can land the tour on the wrong side of a non-convex
// face and stall with no strictly-closer crossing left — GMP escapes that
// through its greedy fallback and watchdog, but a pure face-routing protocol
// (MCFR) cannot, so it needs this variant for "the walk retakes the face's
// first directed edge" to be a sound unreachability test. NextHopLocal's
// sweep is kept verbatim for the GMP/PBM perimeter modes, whose recovery
// machinery assumes it.
func NextHopLocalFace2(cur int, pos geom.Point, nbrs []int, nbrPos func(int) geom.Point, bearings []float64, st State) (next int, out State, ok bool) {
	if len(nbrs) == 0 {
		return -1, st, false
	}

	cands := faceCandidates(pos, nbrs, nbrPos, bearings, st)

	// Side-aware face-change sweep.
	idx := 0
	for sweep := 0; sweep < len(cands); sweep++ {
		n := cands[idx].id
		npos := nbrPos(n)
		edge := geom.Seg(pos, npos)
		lfd := geom.Seg(st.FaceEntry, st.Target)
		if edge.ProperlyIntersects(lfd) {
			if cross, okc := edge.CrossingPoint(lfd); okc &&
				cross.Dist(st.Target) < st.FaceEntry.Dist(st.Target)-geom.Eps {
				st.FaceEntry = cross
				// side > 0: the target lies left of the directed edge
				// cur→n; side < 0: right. The tour's interior side is right
				// for the right-hand rule, left under Reverse.
				side := (npos.X-pos.X)*(st.Target.Y-cross.Y) -
					(npos.Y-pos.Y)*(st.Target.X-cross.X)
				interior := side < 0
				if st.Reverse {
					interior = side > 0
				}
				if interior {
					// The segment re-enters the current face: keep touring
					// it, crossing edge included.
					break
				}
				idx = (idx + 1) % len(cands)
				continue
			}
		}
		break
	}
	chosen := cands[idx].id
	st.Prev = cur
	return chosen, st, true
}

// EnterAt returns the initial perimeter state for a packet entering
// perimeter mode at substrate position pos aiming at target — the
// local-data form of Enter.
func EnterAt(pos geom.Point, target geom.Point) State {
	return State{Target: target, Entry: pos, FaceEntry: pos, Prev: -1,
		FirstFrom: -1, FirstTo: -1}
}
