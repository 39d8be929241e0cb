// Package view defines the NodeView abstraction: the strictly local
// knowledge a sensor node routes with under the paper's §2 model — its own
// location, its 1-hop neighbors' advertised locations (learned from HELLO
// beacons), and the locally computed planar adjacency used by perimeter
// mode. Destination locations are NOT part of the view; they travel in the
// packet header (sim.Header.Locs), exactly as the wire format carries them.
//
// Protocol decision cores compile against NodeView only, so the type system
// enforces the locality contract: a decision physically cannot look up the
// position of an arbitrary node or inspect global topology.
//
// A view keeps only per-node facts true for the node's whole life (its
// planar adjacency and bearings). The buffers of a decision live in a
// Scratch arena owned by whoever runs the decision — a kernel lane, a
// service decider — and lent to the deciding node's view by Provider.At.
//
// Two implementations are provided:
//
//   - Oracle: backed directly by network.Network and a globally planarized
//     graph. This is the ideal-knowledge view the paper evaluates under —
//     beacons are implicit, instantaneous, and loss-free.
//   - Live: backed by a beacon-style neighbor table snapshot (see the
//     beacon package's adapter), with whatever staleness and position error
//     the table carries. The planar adjacency is computed per node from the
//     table alone, as a real node would.
package view

import (
	"gmp/internal/geom"
)

// NodeView is one node's local knowledge at decision time.
//
// Position oracles come in two flavors because the simulation distinguishes
// what a node's *beacons advertise* (Pos, NbrPos — possibly noisy or stale)
// from the substrate the perimeter planarization was computed over
// (PlanarSelfPos, PlanarPos). Under the ideal oracle both agree; the
// localization and staleness experiments deliberately split them.
type NodeView interface {
	// Self returns this node's ID (its address — the paper equates location
	// and identifier, but simulation bookkeeping keys on IDs).
	Self() int
	// Pos returns this node's own advertised position.
	Pos() geom.Point
	// Neighbors returns the 1-hop neighbor IDs in ascending order, as the
	// int32 IDs of the network's CSR adjacency (or of a live table). The
	// slice is shared; callers must not mutate it.
	Neighbors() []int32
	// NbrPos returns the advertised position of a neighbor (or of Self).
	// The argument must come from Neighbors() or Self(); anything else is
	// outside the view's knowledge and yields the zero Point — which is
	// indistinguishable from a node legitimately at the origin. Use
	// NbrPosOK whenever the id might be outside the view (e.g. a packet's
	// previous-hop field under live tables, where one-sided links make the
	// sender unknown to the receiver).
	NbrPos(id int) geom.Point
	// NbrPosOK is NbrPos with an explicit in-view report: ok is false when
	// the id's position is not part of this view's knowledge.
	NbrPosOK(id int) (pos geom.Point, ok bool)
	// Degree returns len(Neighbors()).
	Degree() int
	// Range returns the node's radio range in meters (local hardware
	// knowledge, used by the radio-aware rrSTR cases).
	Range() float64

	// PlanarSelfPos returns this node's position in the planar substrate.
	PlanarSelfPos() geom.Point
	// PlanarNeighbors returns the node's planar (GG/RNG) adjacency, sorted
	// counter-clockwise by bearing — the order the right-hand rule consumes.
	// The slice is shared; callers must not mutate it.
	PlanarNeighbors() []int
	// PlanarPos returns the planar-substrate position of a planar neighbor
	// (or of Self).
	PlanarPos(id int) geom.Point
	// PlanarBearings returns the bearings from PlanarSelfPos to each planar
	// neighbor, parallel to PlanarNeighbors. They are a fact of the node's
	// substrate for its whole life, so views compute them once and cache
	// them. The slice is shared; callers must not mutate it.
	PlanarBearings() []float64

	// Scratch returns the decision arena lent to this view by At. Scratch
	// state never changes decision outcomes — it only holds buffers of the
	// decision in progress — so decisions stay referentially transparent.
	Scratch() *Scratch
}

// Provider hands out per-node views. An engine holds one Provider per run
// configuration; views from one provider share immutable substrate data and
// per-node caches of lifelong facts (planar adjacencies and bearings). The
// decision arena is not per node: whoever runs the decision lends one.
//
// Providers are not safe for concurrent engines: parallel campaign cells
// must construct one provider each (the per-node caches are per provider).
// Within one engine a node's view is only touched by the lane that owns the
// node, so concurrent lanes never share a view.
type Provider interface {
	// At returns node id's view with s as its decision arena. The view is
	// valid until the next topology change (providers over immutable
	// networks never invalidate), and s until the next At for the same
	// node. A lane or decider lends its one arena to every node it decides
	// at, since it runs one decision at a time.
	At(id int, s *Scratch) NodeView
}

// planarBearings computes the bearings from v's substrate position to each
// of its planar neighbors. The result is never nil, so providers use nil to
// mean "not yet computed".
func planarBearings(v NodeView) []float64 {
	pos := v.PlanarSelfPos()
	nbrs := v.PlanarNeighbors()
	b := make([]float64, len(nbrs))
	for i, n := range nbrs {
		b[i] = geom.Bearing(pos, v.PlanarPos(n))
	}
	return b
}

// WatchdogLimits bounds one perimeter walk. The zero value disarms the
// watchdog entirely, which keeps watchdog-free runs byte-identical to the
// pre-watchdog engine (the strict no-op guarantee of DESIGN.md §3).
type WatchdogLimits struct {
	// MaxWalkHops caps the steps of a single face-traversal walk; 0 means
	// unlimited. A planar walk that makes progress exits long before any
	// generous cap; only inconsistent local planarizations spin.
	MaxWalkHops int
	// MaxWalkDist caps the cumulative substrate distance of a single walk
	// in meters; 0 means unlimited. This is the no-progress distance
	// budget: a healthy recovery walks O(perimeter) meters, not more.
	MaxWalkDist float64
}

// Armed reports whether any limit is set.
func (w WatchdogLimits) Armed() bool { return w.MaxWalkHops > 0 || w.MaxWalkDist > 0 }

// WatchdogCarrier is implemented by views whose provider armed the
// perimeter watchdog; PerimeterStep consults it on every perimeter hop.
type WatchdogCarrier interface {
	PerimeterWatchdog() WatchdogLimits
}

// AltPlanarView is implemented by views that can planarize their neighbor
// table under the alternate rule (Gabriel ↔ RNG). The watchdog restarts a
// looping walk on this adjacency once before giving up — the two rules
// planarize inconsistent tables differently, so the loop often breaks.
type AltPlanarView interface {
	// AltPlanarNeighbors returns the alternate-rule planar adjacency in CCW
	// bearing order. The slice is shared; callers must not mutate it.
	AltPlanarNeighbors() []int
}
