package routing

import (
	"fmt"
	"math"
	"sort"

	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// pbmExactLimit caps the candidate count for exhaustive subset enumeration;
// beyond it PBM falls back to greedy forward-selection. The paper itself
// notes PBM "can be very costly when there are large numbers of neighbors
// and destinations" — see DESIGN.md §3 for the substitution argument.
const pbmExactLimit = 12

// PBM is the position-based multicast baseline (Mauve et al. [21]). At each
// node it chooses a subset S of its neighbors minimizing
//
//	f(S) = λ·|S|/|N| + (1-λ)·(Σ_d min_{n∈S} d(n,d)) / (Σ_d d(cur,d))
//
// assigns every destination to the closest member of S, and forwards one
// copy per chosen neighbor. λ trades total hops (bandwidth) against
// per-destination progress; the paper sweeps λ ∈ {0, 0.1, …, 0.6} and keeps
// the best run.
//
// Void destinations (no neighbor closer than the current node) are grouped
// into a single perimeter-mode packet aimed at their average location; unlike
// GMP, PBM always sends void destinations to perimeter mode immediately
// (§4.1, Figure 10 discussion).
type PBM struct {
	lambda float64
}

var _ Protocol = (*PBM)(nil)

func init() {
	MustRegister(Spec{Name: "PBM", PaperRank: 1, Flags: FlagLambda,
		New: func(c Ctx) Protocol { return NewPBM(c.Lambda) }})
}

// NewPBM returns a PBM instance with the given trade-off parameter λ.
func NewPBM(lambda float64) *PBM {
	return &PBM{lambda: lambda}
}

// Name implements Protocol.
func (p *PBM) Name() string { return fmt.Sprintf("PBM(λ=%.1f)", p.lambda) }

// Lambda returns the protocol's trade-off parameter.
func (p *PBM) Lambda() float64 { return p.lambda }

// Start implements sim.Handler.
func (p *PBM) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return greedyThenFace(v, pkt, p.greedy)
}

// Decide implements sim.Handler.
func (p *PBM) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Perimeter {
		return recoverFace(v, pkt, p.greedy)
	}
	return greedyThenFace(v, pkt, p.greedy)
}

// splitVoids partitions dests into those with at least one strictly closer
// neighbor and those without (voids).
func (p *PBM) splitVoids(v view.NodeView, loc map[int]geom.Point, dests []int) (routable, voids []int) {
	for _, d := range dests {
		if greedyNextHop(v, loc[d]) == -1 {
			voids = append(voids, d)
		} else {
			routable = append(routable, d)
		}
	}
	return routable, voids
}

// greedy forwards the destinations that have a strictly closer neighbor
// through the subset optimization and returns the rest as voids.
func (p *PBM) greedy(v view.NodeView, pkt *sim.Packet) ([]sim.Forward, []int) {
	loc := locIndex(pkt)
	routable, voids := p.splitVoids(v, loc, pkt.Dests)
	var fwds []sim.Forward
	if len(routable) > 0 {
		fwds = p.forwardSubset(v, loc, pkt, routable)
	}
	return fwds, voids
}

// forwardSubset runs the subset optimization and emits one copy per chosen
// neighbor with its assigned destinations.
func (p *PBM) forwardSubset(v view.NodeView, loc map[int]geom.Point, pkt *sim.Packet, dests []int) []sim.Forward {
	subset := p.chooseSubset(v, loc, dests)
	if len(subset) == 0 {
		// Cannot happen for routable destinations, but fail safe.
		return dropOnly(pkt)
	}
	assign := make(map[int][]int, len(subset))
	for _, d := range dests {
		dp := loc[d]
		best, bestD := subset[0], math.Inf(1)
		for _, n := range subset {
			if dd := v.NbrPos(n).Dist(dp); dd < bestD {
				best, bestD = n, dd
			}
		}
		assign[best] = append(assign[best], d)
	}
	members := make([]int, 0, len(assign))
	for n := range assign {
		members = append(members, n)
	}
	sort.Ints(members)
	fwds := make([]sim.Forward, 0, len(members))
	for _, n := range members {
		copyPkt := pkt.CloneFor(sortedCopy(assign[n]))
		copyPkt.Perimeter = false
		fwds = append(fwds, sim.Forward{To: n, Pkt: copyPkt})
	}
	return fwds
}

// candidates returns the distinct per-destination closest neighbors: the
// only neighbors that can lower the remaining-distance term of f.
func (p *PBM) candidates(v view.NodeView, loc map[int]geom.Point, dests []int) []int {
	set := make(map[int]bool)
	for _, d := range dests {
		dp := loc[d]
		best, bestD := -1, math.Inf(1)
		for _, n := range v.Neighbors() {
			if dd := v.NbrPos(n).Dist(dp); dd < bestD {
				best, bestD = n, dd
			}
		}
		if best != -1 {
			set[best] = true
		}
	}
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// objective evaluates f(S) for the given subset.
func (p *PBM) objective(v view.NodeView, loc map[int]geom.Point, subset, dests []int) float64 {
	m := v.Degree()
	if m == 0 || len(subset) == 0 {
		return math.Inf(1)
	}
	var remaining float64
	for _, d := range dests {
		dp := loc[d]
		best := math.Inf(1)
		for _, n := range subset {
			if dd := v.NbrPos(n).Dist(dp); dd < best {
				best = dd
			}
		}
		remaining += best
	}
	curTotal := sumDistTo(v.Pos(), dests, loc)
	if curTotal <= geom.Eps {
		curTotal = geom.Eps
	}
	return p.lambda*float64(len(subset))/float64(m) + (1-p.lambda)*remaining/curTotal
}

// chooseSubset minimizes f over subsets of the candidate neighbors:
// exhaustively when the candidate set is small, greedily otherwise.
func (p *PBM) chooseSubset(v view.NodeView, loc map[int]geom.Point, dests []int) []int {
	cands := p.candidates(v, loc, dests)
	if len(cands) == 0 {
		return nil
	}
	if len(cands) <= pbmExactLimit {
		return p.exhaustiveSubset(v, loc, cands, dests)
	}
	return p.greedySubset(v, loc, cands, dests)
}

func (p *PBM) exhaustiveSubset(v view.NodeView, loc map[int]geom.Point, cands, dests []int) []int {
	bestF := math.Inf(1)
	var best []int
	buf := make([]int, 0, len(cands))
	for mask := 1; mask < 1<<len(cands); mask++ {
		buf = buf[:0]
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				buf = append(buf, c)
			}
		}
		if f := p.objective(v, loc, buf, dests); f < bestF {
			bestF = f
			best = append([]int(nil), buf...)
		}
	}
	return best
}

func (p *PBM) greedySubset(v view.NodeView, loc map[int]geom.Point, cands, dests []int) []int {
	var subset []int
	bestF := math.Inf(1)
	remaining := append([]int(nil), cands...)
	for len(remaining) > 0 {
		pick, pickF := -1, bestF
		for i, c := range remaining {
			f := p.objective(v, loc, append(subset, c), dests)
			if f < pickF {
				pick, pickF = i, f
			}
		}
		if pick == -1 {
			break // no single addition improves f
		}
		subset = append(subset, remaining[pick])
		bestF = pickF
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	sort.Ints(subset)
	return subset
}
