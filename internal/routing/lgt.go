package routing

import (
	"fmt"
	"math"
	"sort"

	"gmp/internal/sim"
	"gmp/internal/view"
)

// LGS is the location-guided Steiner-tree baseline of Chen & Nahrstedt [5]:
// a partitioning node builds a minimum spanning tree over itself and the
// remaining destinations (actual destination locations only — no virtual
// points), partitions the destinations by the MST children, and sends each
// group greedily toward its subtree root.
//
// Crucially — and unlike GMP — only subtree roots re-partition: relay nodes
// between roots just forward greedily toward the packet's current root
// (§5.2: routing "prevents the destinations from getting divided into groups
// at intermediate nodes"). LGS has no void recovery: it drops the packet
// when no neighbor is closer to the current root (§5.4: "it fails when a
// void destination is identified").
type LGS struct{}

var _ Protocol = (*LGS)(nil)

func init() {
	MustRegister(Spec{Name: "LGS", PaperRank: 2, Progress: ProgressNone,
		New: func(Ctx) Protocol { return NewLGS() }})
	MustRegister(Spec{Name: "LGK", Progress: ProgressNone,
		New: func(c Ctx) Protocol {
			k := c.K
			if k == 0 {
				k = 2 // [5] evaluates k=2; Ctx.K overrides
			}
			return NewLGK(k)
		}})
}

// NewLGS returns the LGS baseline.
func NewLGS() *LGS { return &LGS{} }

// Name implements Protocol.
func (l *LGS) Name() string { return "LGS" }

// Start implements sim.Handler.
func (l *LGS) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return l.partition(v, pkt)
}

// Decide implements sim.Handler. The engine has already stripped this node
// from the destination list, so a packet anchored at this node has reached
// its subtree root and is due for re-partitioning.
func (l *LGS) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Anchor == v.Self() {
		return l.partition(v, pkt)
	}
	return relayToAnchor(v, pkt.Header)
}

// partition rebuilds the MST at a subtree root and launches one copy per
// child group; a group whose root lies behind a void is dropped (LGS gives
// up on it).
func (l *LGS) partition(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	var fwds []sim.Forward
	mstGroups(v, pkt, func(anchor int, group []int) {
		h := pkt.Sub(append([]int(nil), group...))
		h.Anchor = anchor
		fwds = append(fwds, relayToAnchor(v, h)...)
	})
	return fwds
}

// LGK is the location-guided k-ary tree variant of [5], included for
// completeness: a partitioning node picks its k nearest destinations as
// subtree roots and assigns every remaining destination to the closest
// root. Like LGS, only roots re-partition.
type LGK struct {
	k int
}

var _ Protocol = (*LGK)(nil)

// NewLGK returns an LGK instance with fan-out k (k ≥ 1; [5] evaluates k=2).
func NewLGK(k int) *LGK {
	if k < 1 {
		k = 1
	}
	return &LGK{k: k}
}

// Name implements Protocol.
func (l *LGK) Name() string { return fmt.Sprintf("LGK%d", l.k) }

// Start implements sim.Handler.
func (l *LGK) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return l.partition(v, pkt)
}

// Decide implements sim.Handler.
func (l *LGK) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Anchor == v.Self() {
		return l.partition(v, pkt)
	}
	return relayToAnchor(v, pkt.Header)
}

func (l *LGK) partition(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	pos := v.Pos()
	loc := locIndex(pkt)
	dests := sortedCopy(pkt.Dests)
	// Roots: the k destinations nearest to the current node.
	sort.SliceStable(dests, func(i, j int) bool {
		return pos.Dist(loc[dests[i]]) < pos.Dist(loc[dests[j]])
	})
	k := l.k
	if k > len(dests) {
		k = len(dests)
	}
	roots := dests[:k]
	groups := make(map[int][]int, k)
	for _, r := range roots {
		groups[r] = []int{r}
	}
	for _, d := range dests[k:] {
		best, bestD := roots[0], math.Inf(1)
		for _, r := range roots {
			if dd := loc[d].Dist(loc[r]); dd < bestD {
				best, bestD = r, dd
			}
		}
		groups[best] = append(groups[best], d)
	}
	var fwds []sim.Forward
	for _, r := range roots {
		h := pkt.Sub(sortedCopy(groups[r]))
		h.Anchor = r
		fwds = append(fwds, relayToAnchor(v, h)...)
	}
	return fwds
}
