package routing

import (
	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// Geocast delivers a message to every node inside a geographic region — the
// group-communication sibling the paper's introduction contrasts multicast
// against (refs [15, 2, 28]). It is built on the same substrates as GMP:
// the packet first travels greedily (with perimeter recovery) toward the
// region's anchor point; once inside the region it floods region-restricted
// copies.
//
// Geocast tasks are expressed through the usual engine interface by passing
// the IDs of the nodes inside the region as the destination set (the
// network package's NodesInRegion helper computes them); the protocol itself
// never uses that list for routing — delivery accounting comes from the
// engine observing packet arrivals, so the region flood stands on its own.
// Membership tests are purely geometric: a node checks its own position and
// its neighbors' advertised positions against the region carried in the
// protocol configuration.
type Geocast struct {
	region geom.Region
	// flooded models each region node's duplicate-suppression cache: a
	// node rebroadcasts a flood packet at most once per task, exactly as
	// classical region flooding does. Reset at Start. This per-task state
	// is the documented purity exception for Geocast (it stands in for the
	// per-node caches real flooding uses).
	flooded map[int]bool
}

var _ Protocol = (*Geocast)(nil)

// NewGeocast returns a geocast protocol targeting the disk at center with
// the given radius.
func NewGeocast(center geom.Point, radius float64) *Geocast {
	return NewGeocastRegion(geom.Disk{C: center, R: radius})
}

// NewGeocastRegion returns a geocast protocol targeting an arbitrary region
// (disk, rectangle, polygon — anything implementing geom.Region).
func NewGeocastRegion(region geom.Region) *Geocast {
	return &Geocast{region: region}
}

// Name implements Protocol.
func (g *Geocast) Name() string { return "GEO" }

// inPt reports whether a position lies inside the geocast region.
func (g *Geocast) inPt(p geom.Point) bool { return g.region.Contains(p) }

// Start implements sim.Handler.
func (g *Geocast) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	g.flooded = make(map[int]bool)
	if g.inPt(v.Pos()) {
		return g.flood(v, pkt, -1)
	}
	return g.approach(v, pkt)
}

// Decide implements sim.Handler.
func (g *Geocast) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if g.inPt(v.Pos()) {
		// Anchor carries the ID of the previous hop during the flood so a
		// node does not echo straight back; duplicate suppression beyond
		// that comes from the flood's hop-limited scope plus the engine's
		// first-delivery-wins accounting. The previous hop is by definition
		// in radio range, so its advertised position is in the view.
		prev := pkt.Anchor
		if !pkt.Perimeter && prev != -1 {
			// NbrPosOK: under live tables the previous hop may be absent
			// from this node's table (one-sided link); the zero Point is a
			// legal position, so a plain NbrPos lookup cannot distinguish
			// "unknown" from "at the origin".
			if pp, known := v.NbrPosOK(prev); !known || !g.inPt(pp) {
				prev = -1
			}
		}
		return g.flood(v, pkt, prev)
	}
	if pkt.Perimeter && !faceExited(v, g.region.Anchor(), pkt.Peri) {
		return faceStep(v, pkt.Peri, pkt.Header)
	}
	return g.approach(v, pkt)
}

// approach takes one greedy step toward the region anchor, entering
// perimeter mode at local minima.
func (g *Geocast) approach(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if next := greedyNextHop(v, g.region.Anchor()); next != -1 {
		h := pkt.Header
		h.Perimeter = false
		h.Anchor = v.Self()
		return []sim.Forward{{To: next, Header: h}}
	}
	return faceStart(v, g.region.Anchor(), pkt.Header)
}

// flood emits region-restricted copies to every in-region neighbor except
// the one the packet came from. Each node rebroadcasts at most once per task
// (the flooded cache), so the flood costs at most one transmission burst per
// region node and always terminates.
func (g *Geocast) flood(v view.NodeView, pkt *sim.Packet, prev int) []sim.Forward {
	if g.flooded[v.Self()] {
		return nil
	}
	g.flooded[v.Self()] = true
	h := pkt.Header
	h.Perimeter = false
	h.Anchor = v.Self()
	var fwds []sim.Forward
	for _, nb := range v.Neighbors() {
		n := int(nb)
		if n == prev || !g.inPt(v.NbrPos(n)) {
			continue
		}
		fwds = append(fwds, sim.Forward{To: n, Header: h})
	}
	return fwds
}
