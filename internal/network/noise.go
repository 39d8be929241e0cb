package network

import (
	"math/rand"

	"gmp/internal/geom"
)

// WithPositionNoise returns a view of the network in which every node
// *reports* a position perturbed by isotropic Gaussian noise with the given
// standard deviation (meters), while the radio physics — adjacency, ranges,
// listener counts — keep using the true positions.
//
// This models localization error: the paper's §2 assumes each node knows
// its coordinates "through an internal GPS device or through a separate
// calibration process", both of which err in practice. Geographic routing
// decisions (greedy progress, Steiner construction, planarization) are made
// from reported positions exactly as real nodes would make them.
func (nw *Network) WithPositionNoise(sigma float64, r *rand.Rand) *Network {
	reported := make([]geom.Point, len(nw.phys))
	for i, p := range nw.phys {
		reported[i] = geom.Pt(p.X+r.NormFloat64()*sigma, p.Y+r.NormFloat64()*sigma)
	}
	return nw.withPositions(reported)
}

// withPositions returns a view of nw that reports the given positions, which
// the view owns.
func (nw *Network) withPositions(reported []geom.Point) *Network {
	clone := *nw
	clone.pos = reported
	clone.tables = new(viewTables)
	return &clone
}

// TruePos returns the node's physical position regardless of any reported-
// position overlay.
func (nw *Network) TruePos(id int) geom.Point { return nw.phys[id] }

// WithReportedPositions returns a view in which the given nodes report the
// supplied (for example stale) positions instead of their true ones, while
// physics keeps using true positions. Nodes not in overrides report
// truthfully. Used by the location-staleness experiment: a mobile
// destination's advertised coordinates lag behind where it actually is.
func (nw *Network) WithReportedPositions(overrides map[int]geom.Point) *Network {
	reported := make([]geom.Point, len(nw.pos))
	copy(reported, nw.pos) // preserve any existing overlay
	for i, p := range overrides {
		if i >= 0 && i < len(reported) {
			reported[i] = p
		}
	}
	return nw.withPositions(reported)
}
