package routing

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// PBM declares no progress rule: for λ > 0 the subset search trades
// progress for fewer copies, so a destination may ride a copy to a chosen
// neighbor farther from it than the current node. At λ = 0 every
// destination goes to its closest neighbor, which is strictly nearer
// (TestPBMProgressAtLambdaZero).
func init() {
	MustRegister(Spec{Name: "PBM", PaperRank: 1, Flags: FlagLambda, Progress: ProgressNone,
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

// greedy forwards the destinations that have a strictly closer neighbor
// through the subset optimization and returns the rest as voids, in header
// order.
//
// One neighbor scan per destination gives both. It records the distance
// from every neighbor and the first neighbor at the least distance. The
// destination is routable when that neighbor is strictly nearer than v, and
// that neighbor is then the one greedyNextHop would pick and a candidate
// of the subset search: only per-destination closest neighbors can lower
// the remaining-distance term of f.
func (p *PBM) greedy(v view.NodeView, pkt *sim.Packet) ([]sim.Forward, []int) {
	s := v.Scratch()
	a := &s.PBM
	nbrs := v.Neighbors()
	deg := len(nbrs)
	self := v.Pos()
	nbrDist := resize(a.NbrDist, len(pkt.Dests)*deg)
	routable, cands := a.Routable[:0], a.Cands[:0]
	voids := s.VoidBuf[:0]
	// curTotal is Σ_d d(v, d) over the routable destinations, in header
	// order: f's denominator, the same for every subset.
	var curTotal float64
	for j, dp := range pkt.Locs {
		row := nbrDist[j*deg : (j+1)*deg]
		best, bestD := -1, math.Inf(1)
		for i, n := range nbrs {
			d := v.NbrPos(int(n)).Dist(dp)
			row[i] = d
			if d < bestD {
				best, bestD = i, d
			}
		}
		curD := self.Dist(dp)
		if !(bestD < curD) {
			voids = append(voids, pkt.Dests[j])
			continue
		}
		routable = append(routable, j)
		if !slices.Contains(cands, best) {
			cands = append(cands, best)
		}
		curTotal += curD
	}
	slices.SortFunc(cands, func(x, y int) int { return cmp.Compare(nbrs[x], nbrs[y]) })
	a.NbrDist, a.Routable, a.Cands = nbrDist, routable, cands
	s.VoidBuf = voids
	if len(routable) == 0 {
		return nil, voids
	}

	// The candidate × routable-destination table, read from the scan.
	r := len(routable)
	table := resize(a.Table, len(cands)*r)
	for c, i := range cands {
		for k, j := range routable {
			table[c*r+k] = nbrDist[j*deg+i]
		}
	}
	a.Table = table
	if curTotal <= geom.Eps {
		curTotal = geom.Eps
	}
	srch := pbmSearch{lambda: p.lambda, deg: v.Degree(), k: len(cands), r: r,
		table: table, curTotal: curTotal}
	var members []int
	if len(cands) <= pbmExactLimit {
		members = srch.exhaustive(a)
	} else {
		members = srch.greedy(a)
	}
	if len(members) == 0 {
		// Only a subset whose f is not below +Inf leaves this empty.
		return dropOnly(pkt.Header), voids
	}
	return srch.forward(a, pkt, nbrs, members), voids
}

// pbmSearch minimizes
//
//	f(S) = λ·|S|/deg + (1-λ)·(Σ_d min_{c∈S} table[c][d]) / curTotal
//
// over subsets S of the k candidates, for r routable destinations. Its f is
// bit-identical to evaluating every subset from positions: the table holds
// the same distances, a minimum does not depend on the order it is taken
// in, and the sum always runs over the destinations in header order.
type pbmSearch struct {
	lambda   float64
	deg      int
	k, r     int
	table    []float64
	curTotal float64
}

// f returns f(S) for a subset of the given size and remaining-distance sum.
func (s *pbmSearch) f(size int, remaining float64) float64 {
	return s.lambda*float64(size)/float64(s.deg) + (1-s.lambda)*remaining/s.curTotal
}

// exhaustive returns the candidates, ascending, of the first subset in
// increasing mask order with the least f (a strict < keeps the earliest).
//
// Masks are walked in increasing order with a stack of running minima, one
// level per set bit from the highest down: level l holds the per-destination
// minimum over the mask's l highest candidates. Going from mask−1 to mask
// clears the t trailing one bits, the top t levels, and sets bit t, one new
// level below every remaining bit. So each mask costs one O(r) level and
// one O(r) sum, not |S|·r distance evaluations.
func (s *pbmSearch) exhaustive(a *view.PBMArena) []int {
	r := s.r
	mins := resize(a.Mins, (s.k+1)*r)
	a.Mins = mins
	for j := range r {
		mins[j] = math.Inf(1)
	}
	bestF, bestMask := math.Inf(1), 0
	depth := 0
	for mask := 1; mask < 1<<s.k; mask++ {
		b := bits.TrailingZeros(uint(mask))
		depth -= b
		prev := mins[depth*r : (depth+1)*r]
		next := mins[(depth+1)*r : (depth+2)*r]
		row := s.table[b*r : (b+1)*r]
		var remaining float64
		for j, m := range prev {
			if d := row[j]; d < m {
				m = d
			}
			next[j] = m
			remaining += m
		}
		depth++
		if f := s.f(depth, remaining); f < bestF {
			bestF, bestMask = f, mask
		}
	}
	members := a.Members[:0]
	for c := range s.k {
		if bestMask&(1<<c) != 0 {
			members = append(members, c)
		}
	}
	a.Members = members
	return members
}

// greedy is the forward selection used above pbmExactLimit candidates:
// starting from the empty subset, repeatedly add the candidate, scanned in
// ascending order, whose addition gives the least f strictly below the
// current one. It returns the chosen candidates ascending.
func (s *pbmSearch) greedy(a *view.PBMArena) []int {
	r := s.r
	cur := resize(a.Mins, r)
	a.Mins = cur
	for j := range cur {
		cur[j] = math.Inf(1)
	}
	taken := resize(a.Taken, s.k)
	a.Taken = taken
	clear(taken)
	members := a.Members[:0]
	bestF := math.Inf(1)
	for len(members) < s.k {
		pick, pickF := -1, bestF
		for c := range s.k {
			if taken[c] {
				continue
			}
			row := s.table[c*r : (c+1)*r]
			var remaining float64
			for j, m := range cur {
				if d := row[j]; d < m {
					m = d
				}
				remaining += m
			}
			if f := s.f(len(members)+1, remaining); f < pickF {
				pick, pickF = c, f
			}
		}
		if pick == -1 {
			break // no single addition improves f
		}
		row := s.table[pick*r : (pick+1)*r]
		for j, d := range row {
			if d < cur[j] {
				cur[j] = d
			}
		}
		taken[pick] = true
		members = append(members, pick)
		bestF = pickF
	}
	slices.Sort(members)
	a.Members = members
	return members
}

// forward assigns every routable destination to its closest member (the
// lowest-ID one on a tie) and emits one copy per member that got any, in
// ascending neighbor-ID order.
func (s *pbmSearch) forward(a *view.PBMArena, pkt *sim.Packet, nbrs []int32, members []int) []sim.Forward {
	r := s.r
	owner := resize(a.Owner, r)
	a.Owner = owner
	counts := resize(a.Counts, len(members))
	a.Counts = counts
	clear(counts)
	used := 0
	for j := range owner {
		best, bestD := 0, math.Inf(1)
		for i, c := range members {
			if d := s.table[c*r+j]; d < bestD {
				best, bestD = i, d
			}
		}
		owner[j] = best
		if counts[best] == 0 {
			used++
		}
		counts[best]++
	}
	fwds := make([]sim.Forward, 0, used)
	for i, c := range members {
		if counts[i] == 0 {
			continue
		}
		sub := make([]int, 0, counts[i])
		for j, o := range owner {
			if o == i {
				sub = append(sub, pkt.Dests[a.Routable[j]])
			}
		}
		sort.Ints(sub)
		h := pkt.Sub(sub)
		h.Perimeter = false
		fwds = append(fwds, sim.Forward{To: int(nbrs[a.Cands[c]]), Header: h})
	}
	return fwds
}

// resize returns buf resliced to n elements, reallocated when too short.
// The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
