package network

import (
	"math/rand"

	"gmp/internal/geom"
)

// A view is a network degraded the way the extension experiments need: some
// radios dead (WithFailures), some reported positions wrong
// (WithPositionNoise, WithReportedPositions). Radio physics — cells, tiles,
// which nodes can hear which — always reads true positions; routing reads
// Pos. Every view is made by derive, so views compose by these laws:
//
//   - failures union and commute: F(a)∘F(b) = F(b)∘F(a) = F(a∪b);
//   - reported positions are last-writer-wins over the parent's Pos, and
//     noise perturbs the parent's Pos, so it keeps a stale or noisy parent's
//     position as its mean;
//   - failures and reported positions are independent, so a failure and a
//     position overlay commute (noise with the same RNG stream);
//   - a position overlay clears ReportsTruePositions even when it moves no
//     node, for example noise with σ = 0.

// derive is the one constructor of views: it returns a view of nw in which
// the radios named in failed are dead in addition to nw's (IDs outside the
// network are ignored) and Pos reads pos, either nw's own array or a fresh
// one. Cells, tiles and true positions are shared: they are immutable and
// depend on true positions alone. The tables are fresh, never inherited,
// because a view's links and Dist can differ from its parent's.
func (nw *Network) derive(failed []int, pos []geom.Point) *Network {
	v := *nw
	v.pos, v.tables = pos, new(viewTables)
	if len(failed) == 0 {
		return &v
	}
	v.down = make([]bool, len(nw.phys))
	copy(v.down, nw.down)
	for _, id := range failed {
		if id >= 0 && id < len(v.down) {
			v.down[id] = true
		}
	}
	// nw's rows already lack nw's dead radios, so filtering them for the
	// union equals filtering the intact adjacency. The rows are symmetric:
	// each entry a dead node's row loses also leaves the row of its
	// neighbor, if that neighbor is live. So the kept entries are counted
	// from the dead rows alone, and one pass fills an exactly sized CSR.
	kept := len(nw.nbr)
	for id, dead := range v.down {
		if dead {
			for _, n := range nw.Neighbors(id) {
				kept--
				if !v.down[n] {
					kept--
				}
			}
		}
	}
	v.off = make([]int32, len(nw.off))
	v.nbr = make([]int32, 0, kept)
	for id := range nw.phys {
		if !v.down[id] { // a dead node has no links at all
			for _, n := range nw.Neighbors(id) {
				if !v.down[n] {
					v.nbr = append(v.nbr, n)
				}
			}
		}
		v.off[id+1] = int32(len(v.nbr))
	}
	return &v
}

// WithFailures returns a degraded view of the network in which the given
// nodes' radios are dead, in addition to any already dead in nw: they keep
// their IDs and positions (so addressing stays stable) but have no links —
// they can neither send, receive, nor relay. The original network is
// unchanged.
//
// This models crash/battery failures for robustness experiments; protocols
// see the failure only through the adjacency (exactly as a real node would:
// a dead neighbor simply stops being heard).
func (nw *Network) WithFailures(failed []int) *Network { return nw.derive(failed, nw.pos) }

// WithPositionNoise returns a view of the network in which every node
// *reports* a position perturbed by isotropic Gaussian noise with the given
// standard deviation (meters) around the position it reports in nw, while
// the radio physics — adjacency, ranges, listener counts — keep using the
// true positions.
//
// This models localization error: the paper's §2 assumes each node knows
// its coordinates "through an internal GPS device or through a separate
// calibration process", both of which err in practice. Geographic routing
// decisions (greedy progress, Steiner construction, planarization) are made
// from reported positions exactly as real nodes would make them.
func (nw *Network) WithPositionNoise(sigma float64, r *rand.Rand) *Network {
	reported := make([]geom.Point, len(nw.pos))
	for i, p := range nw.pos {
		reported[i] = geom.Pt(p.X+r.NormFloat64()*sigma, p.Y+r.NormFloat64()*sigma)
	}
	return nw.derive(nil, reported)
}

// WithReportedPositions returns a view in which the given nodes report the
// supplied (for example stale) positions, while physics keeps using true
// positions. Nodes not in overrides report what they report in nw; IDs
// outside the network are ignored. Used by the location-staleness
// experiment: a mobile destination's advertised coordinates lag behind
// where it actually is.
func (nw *Network) WithReportedPositions(overrides map[int]geom.Point) *Network {
	reported := make([]geom.Point, len(nw.pos))
	copy(reported, nw.pos)
	for i, p := range overrides {
		if i >= 0 && i < len(reported) {
			reported[i] = p
		}
	}
	return nw.derive(nil, reported)
}

// TruePos returns the node's physical position regardless of any reported-
// position overlay.
func (nw *Network) TruePos(id int) geom.Point { return nw.phys[id] }

// Alive reports whether node id has a working radio in this view.
func (nw *Network) Alive(id int) bool {
	return len(nw.down) == 0 || !nw.down[id]
}

// AliveIDs returns the IDs of all nodes with working radios, ascending.
func (nw *Network) AliveIDs() []int {
	out := make([]int, 0, len(nw.phys))
	for id := range nw.phys {
		if nw.Alive(id) {
			out = append(out, id)
		}
	}
	return out
}
