// Package routing implements the multicast routing protocols evaluated in
// the paper: GMP and its GMPnr ablation (§4), and the baselines LGS and LGK
// (Chen & Nahrstedt [5]), PBM (Mauve et al. [21]), GRD (independent greedy
// geographic unicast, the per-destination lower bound), and SMT (centralized
// Kou–Markowsky–Berman source routing [16]).
//
// Every protocol is a sim.Handler: each hop is a pure decision function from
// a node-local view and a packet to a forward list, which the simulation
// engine applies. Decisions see only what the paper's §2 model grants a real
// node — its own position, its 1-hop neighbor table (view.NodeView), and the
// destination locations carried in the packet header. The one sanctioned
// exception is SMT, whose *source* is defined to know the whole network; its
// per-hop decisions are still local.
package routing

import (
	"math"
	"sort"

	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// Protocol is a named routing protocol usable by the experiment harness.
type Protocol interface {
	sim.Handler
	// Name is the series label used in tables ("GMP", "LGS", …).
	Name() string
}

// appendHeaderDests converts the packet header into the steiner package's
// destination records — the IDs with the locations the wire format carries —
// appending them to buf (pass buf[:0] of a scratch slice).
func appendHeaderDests(buf []steiner.Dest, pkt *sim.Packet) []steiner.Dest {
	for i, id := range pkt.Dests {
		buf = append(buf, steiner.Dest{Pos: pkt.Locs[i], Label: id})
	}
	return buf
}

// locIndex builds a destination→header-location lookup for one decision.
func locIndex(pkt *sim.Packet) map[int]geom.Point {
	m := make(map[int]geom.Point, len(pkt.Dests))
	for i, d := range pkt.Dests {
		m[d] = pkt.Locs[i]
	}
	return m
}

// groupNextHop implements GMP's next-hop selection (paper Figure 7 step 4):
// among the deciding node's neighbors, pick the one closest to the pivot
// location subject to the loop-freedom constraint that its total distance to
// the group's destinations is strictly below the current node's. Returns -1
// when no neighbor qualifies (a void for this group). Dead neighbors never
// appear: after an ARQ give-up the engine hands out views that mask the
// blacklisted link.
//
// Callers must have primed the view's distance memo for the current packet
// (Scratch().Memo.Begin) — the Σ-distance terms are memoized there because
// GMP's split loop re-evaluates heavily overlapping groups.
func groupNextHop(v view.NodeView, pivot geom.Point, group []int) int {
	s := v.Scratch()
	s.ColBuf = s.Memo.Cols(group, s.ColBuf[:0])
	cols := s.ColBuf
	curTotal := s.Memo.SumRow(0, v.Pos(), cols)
	best, bestD := -1, math.Inf(1)
	for i, n := range v.Neighbors() {
		np := v.NbrPos(int(n))
		if s.Memo.SumRow(i+1, np, cols) >= curTotal {
			continue
		}
		if d := np.Dist(pivot); d < bestD {
			best, bestD = int(n), d
		}
	}
	return best
}

// greedyNextHop returns the neighbor of the deciding node closest to target,
// provided it is strictly closer to target than the node itself; -1
// otherwise. This is the classical greedy geographic forwarding step used by
// GRD and LGS.
func greedyNextHop(v view.NodeView, target geom.Point) int {
	curD := v.Pos().Dist(target)
	best, bestD := -1, curD
	for _, n := range v.Neighbors() {
		if d := v.NbrPos(int(n)).Dist(target); d < bestD {
			best, bestD = int(n), d
		}
	}
	return best
}

// dropOnly is the single-element forward list abandoning the copy h.
func dropOnly(h sim.Header) []sim.Forward {
	return []sim.Forward{{To: sim.DropCopy, Header: h}}
}

// watchdogDrop abandons the copy h with watchdog attribution: the perimeter
// watchdog detected a non-terminating face traversal and its bounded
// recovery is spent.
func watchdogDrop(h sim.Header) []sim.Forward {
	return []sim.Forward{{To: sim.DropWatchdog, Header: h}}
}

// sortedCopy returns a sorted copy of ids (protocol output must not depend
// on map iteration order anywhere).
func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}
