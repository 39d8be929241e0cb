package routing

import (
	"math"
	"sort"

	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// referencePBM is PBM as it stood before its subset search read one
// distance table: two neighbor scans per destination (the void split, then
// the candidate set), a destination→location map, and f(S) recomputed from
// positions for every mask. It is the oracle of TestPBMMatchesReference and
// FuzzPBMMatchesReference: PBM must return the same forward lists, decision
// by decision.
type referencePBM struct {
	lambda float64
}

// Start implements sim.Handler.
func (p *referencePBM) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return greedyThenFace(v, pkt, p.greedy)
}

// Decide implements sim.Handler.
func (p *referencePBM) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Perimeter {
		return recoverFace(v, pkt, p.greedy)
	}
	return greedyThenFace(v, pkt, p.greedy)
}

// splitVoids partitions dests into those with at least one strictly closer
// neighbor and those without (voids).
func (p *referencePBM) splitVoids(v view.NodeView, loc map[int]geom.Point, dests []int) (routable, voids []int) {
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
func (p *referencePBM) greedy(v view.NodeView, pkt *sim.Packet) ([]sim.Forward, []int) {
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
func (p *referencePBM) forwardSubset(v view.NodeView, loc map[int]geom.Point, pkt *sim.Packet, dests []int) []sim.Forward {
	subset := p.chooseSubset(v, loc, dests)
	if len(subset) == 0 {
		// Cannot happen for routable destinations, but fail safe.
		return dropOnly(pkt.Header)
	}
	assign := make(map[int][]int, len(subset))
	for _, d := range dests {
		dp := loc[d]
		best, bestD := subset[0], math.Inf(1)
		for _, n := range subset {
			if dd := v.NbrPos(int(n)).Dist(dp); dd < bestD {
				best, bestD = int(n), dd
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
		copyPkt := pkt.Sub(sortedCopy(assign[n]))
		copyPkt.Perimeter = false
		fwds = append(fwds, sim.Forward{To: n, Header: copyPkt})
	}
	return fwds
}

// candidates returns the distinct per-destination closest neighbors: the
// only neighbors that can lower the remaining-distance term of f.
func (p *referencePBM) candidates(v view.NodeView, loc map[int]geom.Point, dests []int) []int {
	set := make(map[int]bool)
	for _, d := range dests {
		dp := loc[d]
		best, bestD := -1, math.Inf(1)
		for _, n := range v.Neighbors() {
			if dd := v.NbrPos(int(n)).Dist(dp); dd < bestD {
				best, bestD = int(n), dd
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
func (p *referencePBM) objective(v view.NodeView, loc map[int]geom.Point, subset, dests []int) float64 {
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
func (p *referencePBM) chooseSubset(v view.NodeView, loc map[int]geom.Point, dests []int) []int {
	cands := p.candidates(v, loc, dests)
	if len(cands) == 0 {
		return nil
	}
	if len(cands) <= pbmExactLimit {
		return p.exhaustiveSubset(v, loc, cands, dests)
	}
	return p.greedySubset(v, loc, cands, dests)
}

func (p *referencePBM) exhaustiveSubset(v view.NodeView, loc map[int]geom.Point, cands, dests []int) []int {
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

func (p *referencePBM) greedySubset(v view.NodeView, loc map[int]geom.Point, cands, dests []int) []int {
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

// sumDistTo returns Σ_{d∈dests} dist(p, loc[d]), accumulated in dests order.
func sumDistTo(p geom.Point, dests []int, loc map[int]geom.Point) float64 {
	var total float64
	for _, d := range dests {
		total += p.Dist(loc[d])
	}
	return total
}
