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
// group holds the group's destinations sorted by label, at their header
// locations; every total adds the same terms in that order. The scan asks
// who can win before who qualifies: a neighbor whose squared distance to the
// pivot rules it out (see cutFor) costs no square root, one not strictly
// closer than the best so far costs no totals, and the node's own total is
// computed at the first neighbor that needs it. The answer is that of the
// full scan: the first neighbor, in neighbor order, at the least pivot
// distance among those that qualify.
func groupNextHop(v view.NodeView, pivot geom.Point, group []steiner.Dest) int {
	best, bestD, cut := -1, math.Inf(1), math.Inf(1)
	curTotal, haveCur := 0.0, false
	for _, n := range v.Neighbors() {
		np := v.NbrPos(int(n))
		dx, dy := np.X-pivot.X, np.Y-pivot.Y
		if dx*dx+dy*dy > cut {
			continue
		}
		d := math.Hypot(dx, dy)
		if !(d < bestD) {
			continue
		}
		if !haveCur {
			curTotal, haveCur = groupTotal(v.Pos(), group), true
		}
		if groupTotal(np, group) >= curTotal {
			continue
		}
		best, bestD, cut = int(n), d, cutFor(d)
	}
	return best
}

// groupTotal is Σ dist(p, d) over the group, accumulated in group order.
func groupTotal(p geom.Point, group []steiner.Dest) float64 {
	var total float64
	for _, d := range group {
		total += p.Dist(d.Pos)
	}
	return total
}

// greedyNextHop returns the neighbor of the deciding node closest to target,
// provided it is strictly closer to target than the node itself; -1
// otherwise. This is the classical greedy geographic forwarding step used by
// GRD and LGS. A neighbor whose squared distance rules it out (see cutFor)
// costs no square root; ties still go to the first neighbor.
func greedyNextHop(v view.NodeView, target geom.Point) int {
	bestD := v.Pos().Dist(target)
	best, cut := -1, cutFor(bestD)
	for _, n := range v.Neighbors() {
		p := v.NbrPos(int(n))
		dx, dy := p.X-target.X, p.Y-target.Y
		if dx*dx+dy*dy > cut {
			continue
		}
		if d := math.Hypot(dx, dy); d < bestD {
			best, bestD, cut = int(n), d, cutFor(d)
		}
	}
	return best
}

// cutFor returns the squared-distance cut for a best distance b: a
// neighbor at offset (dx, dy) with dx²+dy² > cutFor(b) has
// math.Hypot(dx, dy) ≥ b, so it cannot pass the scans' strict d < b test.
// The cut is b²·(1+2⁻⁴⁰), and it is exact: the squares, their sum, b² and
// math.Hypot each round by a few ulps (about 1e-15 relative), far below
// the 2⁻⁴⁰ ≈ 9e-13 slack. For 2⁻⁴⁰⁰ < b < 2⁴⁰⁰ the cut is a normal float,
// so a square that underflows errs by far less than the slack, and one that
// overflows to +Inf belongs to a neighbor farther than 2⁵¹² > b. Outside
// that range, and for b = +Inf or NaN, the cut is +Inf and skips nothing.
func cutFor(b float64) float64 {
	if b > 0x1p-400 && b < 0x1p400 {
		return b * b * (1 + 0x1p-40)
	}
	return math.Inf(1)
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
