package routing

import (
	"sort"

	"gmp/internal/geom"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// This file holds the decision-core building blocks the protocols share:
// the supervised face step and GPSR exit rule of perimeter mode (GMP, PBM,
// GRD, Geocast), the §4.1 void handling around a greedy phase (GMP, PBM),
// and the anchor relay and MST partition of the location-guided trees (LGS,
// LGK, MCFR).

// faceStep advances the supervised face traversal one hop from v under
// state st and emits out, the copy's header. A dead end or a watchdog kill
// abandons only out — any copies the decision already emitted for recovered
// destinations are unaffected.
func faceStep(v view.NodeView, st planar.State, out sim.Header) []sim.Forward {
	next, nst, verdict := view.PerimeterStep(v, st)
	switch verdict {
	case view.StepDead:
		return dropOnly(out)
	case view.StepWatchdog:
		return watchdogDrop(out)
	}
	out.Perimeter = true
	out.Peri = nst
	return []sim.Forward{{To: next, Header: out}}
}

// faceStart enters perimeter mode at v aiming at target and takes the
// walk's first step with out.
func faceStart(v view.NodeView, target geom.Point, out sim.Header) []sim.Forward {
	return faceStep(v, view.PerimeterEnter(v, target), out)
}

// faceExited is the standard GPSR exit rule the paper's §4.1 refers to
// ("similar to the one used by PBM [21]"): a perimeter copy may resume
// greedy forwarding once v is strictly closer to target than the face
// walk's entry point. Without it a packet can ping-pong forever between a
// void node and the neighbor that first absorbed it.
func faceExited(v view.NodeView, target geom.Point, st planar.State) bool {
	return v.Pos().Dist(target) < st.Entry.Dist(target)-geom.Eps
}

// greedyPhase is a multicast core's greedy forwarding round: it returns the
// copies it emitted for the destinations it can serve and the voids it
// cannot.
type greedyPhase func(v view.NodeView, pkt *sim.Packet) (fwds []sim.Forward, voids []int)

// greedyThenFace is Figure 7's outer step: run the core's greedy phase and
// push its residual voids into perimeter mode.
func greedyThenFace(v view.NodeView, pkt *sim.Packet, greedy greedyPhase) []sim.Forward {
	fwds, voids := greedy(v, pkt)
	if len(voids) == 0 {
		return fwds
	}
	return append(fwds, enterFace(v, pkt, voids)...)
}

// enterFace starts perimeter mode (§4.1): all void destinations travel in
// a single copy aimed at their average location over the local planar
// adjacency.
func enterFace(v view.NodeView, pkt *sim.Packet, voids []int) []sim.Forward {
	s := v.Scratch()
	locs := s.LocBuf[:0]
	for _, d := range voids {
		locs = append(locs, pkt.LocOf(d))
	}
	s.LocBuf = locs
	return faceStart(v, geom.Centroid(locs), pkt.Sub(sortedCopy(voids)))
}

// recoverFace handles a perimeter-mode copy (§4.1 steps 4–7). Until the
// GPSR exit rule holds the copy keeps traversing. After it, the core's
// greedy phase is re-run: groups that now have valid next hops leave
// perimeter mode. If nothing recovered the same
// traversal continues; if some groups recovered, a fresh traversal starts
// toward the new average of the still-void destinations.
func recoverFace(v view.NodeView, pkt *sim.Packet, greedy greedyPhase) []sim.Forward {
	if !faceExited(v, pkt.Peri.Target, pkt.Peri) {
		return faceStep(v, pkt.Peri, pkt.Sub(sortedCopy(pkt.Dests)))
	}
	fwds, voids := greedy(v, pkt)
	switch {
	case len(voids) == 0:
		return fwds
	case len(voids) == len(pkt.Dests):
		return append(fwds, faceStep(v, pkt.Peri, pkt.Sub(sortedCopy(voids)))...)
	default:
		return append(fwds, enterFace(v, pkt, voids)...)
	}
}

// relayToAnchor takes one greedy step toward the copy's anchor (whose
// location is in the header — the anchor is always one of the copy's own
// destinations), dropping the copy at a void.
func relayToAnchor(v view.NodeView, h sim.Header) []sim.Forward {
	next := greedyNextHop(v, h.LocOf(h.Anchor))
	if next == -1 {
		return dropOnly(h)
	}
	return []sim.Forward{{To: next, Header: h}}
}

// mstGroups partitions the header's destinations as LGS and MCFR do: it
// builds the Euclidean MST over v and the destinations (actual locations
// only, no virtual points) in v's scratch arena, and calls emit once per
// child of v, in insertion order, with the child's label and the sorted
// labels of its subtree. group lives in scratch: emit must copy it to keep
// it.
func mstGroups(v view.NodeView, pkt *sim.Packet, emit func(anchor int, group []int)) {
	s := v.Scratch()
	s.DestBuf = appendHeaderDests(s.DestBuf[:0], pkt)
	tree := s.Steiner.EuclideanMST(v.Pos(), s.DestBuf)
	s.Worklist = tree.AppendChildren(0, -1, s.Worklist[:0])
	for _, p := range s.Worklist {
		s.GroupBuf = tree.AppendSubtreeLabels(p, 0, s.GroupBuf[:0])
		sort.Ints(s.GroupBuf)
		emit(tree.Vertex(p).Label, s.GroupBuf)
	}
}
