package routing

import (
	"cmp"
	"slices"
	"sort"

	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// GMPOptions tunes the GMP protocol variants.
type GMPOptions struct {
	// RadioAware enables the §3.3 radio-range-aware rrSTR cases. Disabling
	// yields GMPnr.
	RadioAware bool
	// MSTGrouping replaces the rrSTR tree with a Euclidean MST while
	// keeping the rest of the GMP machinery (grouping by children,
	// progress-constrained next hops, splitting, perimeter mode). Used by
	// the tree-construction ablation that isolates the paper's central
	// rrSTR-vs-MST claim.
	MSTGrouping bool
	// SteinerizedGrouping replaces the rrSTR tree with the corner-
	// Steinerized MST (the classical MST-improvement heuristic family the
	// paper cites as [23, 26, 33]) — the third arm of the A-6 tree
	// ablation. Takes precedence over MSTGrouping.
	SteinerizedGrouping bool
}

// GMP is the paper's protocol (§4): at every transmitting node it builds an
// rrSTR virtual Euclidean Steiner tree over the remaining destinations,
// groups them by the tree's pivots, forwards one copy per group toward the
// pivot under a strict total-distance progress constraint, splits groups
// around voids, and falls back to perimeter routing on the planarized graph
// for destinations no grouping can serve.
//
// Everything GMP needs is local: the tree is built over the header's
// destination locations, next hops come from the view's neighbor table, and
// perimeter mode walks the view's locally planarized adjacency.
type GMP struct {
	opts GMPOptions
	name string
}

var _ Protocol = (*GMP)(nil)

func init() {
	MustRegister(Spec{Name: "GMP", PaperRank: 3, Progress: ProgressSum,
		New: func(Ctx) Protocol { return NewGMP() }})
	MustRegister(Spec{Name: "GMPnr", PaperRank: 4, Progress: ProgressSum,
		New: func(Ctx) Protocol { return NewGMPnr() }})
	MustRegister(Spec{Name: "GMPmst", Progress: ProgressSum,
		New: func(Ctx) Protocol { return NewGMPWithOptions(GMPOptions{MSTGrouping: true}, "GMPmst") }})
	MustRegister(Spec{Name: "GMPsmst", Progress: ProgressSum,
		New: func(Ctx) Protocol { return NewGMPWithOptions(GMPOptions{SteinerizedGrouping: true}, "GMPsmst") }})
}

// NewGMP returns the full radio-range-aware protocol.
func NewGMP() *GMP {
	return &GMP{opts: GMPOptions{RadioAware: true}, name: "GMP"}
}

// NewGMPnr returns the ablation variant with radio-range awareness disabled
// (the paper's GMPnr series).
func NewGMPnr() *GMP {
	return &GMP{name: "GMPnr"}
}

// NewGMPWithOptions returns a GMP variant with explicit options, used by the
// ablation benchmarks.
func NewGMPWithOptions(opts GMPOptions, name string) *GMP {
	return &GMP{opts: opts, name: name}
}

// Name implements Protocol.
func (g *GMP) Name() string { return g.name }

func (g *GMP) steinerOpts(v view.NodeView) steiner.Options {
	return steiner.Options{
		RadioRange: v.Range(),
		RadioAware: g.opts.RadioAware,
	}
}

// Start implements sim.Handler: the source runs the same procedure as every
// forwarding node.
func (g *GMP) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return greedyThenFace(v, pkt, g.forwardGroups)
}

// Nack implements sim.NackHandler: when ARQ gives up on a next hop, the
// engine has already banned the link in the session's blacklist, so v masks
// the dead neighbor — re-running the full grouping over it re-selects among
// the remaining neighbors or recovers around the dead link as around a void
// (the paper's own group-split/perimeter machinery). A perimeter copy
// restarts recovery as a fresh greedy round: the face traversal cannot route
// around a dead planar edge, but re-grouping can (and residual voids
// re-enter perimeter mode from here anyway).
func (g *GMP) Nack(v view.NodeView, to int, pkt *sim.Packet) []sim.Forward {
	return greedyThenFace(v, pkt, g.forwardGroups)
}

// Decide implements sim.Handler.
func (g *GMP) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Perimeter {
		return recoverFace(v, pkt, g.forwardGroups)
	}
	return greedyThenFace(v, pkt, g.forwardGroups)
}

// forwardGroups builds the rrSTR tree, walks its pivots, emits one packet
// copy per group that has a valid next hop, and splits groups per §4.1 when
// none exists. It returns the destinations that remain void after maximal
// splitting (each is a single non-virtual destination by then).
func (g *GMP) forwardGroups(v view.NodeView, pkt *sim.Packet) (fwds []sim.Forward, voids []int) {
	// Everything transient below lives in the decision arena: the tree,
	// the pivot worklist, the per-group label buffer, and the batches. All of
	// it is clobbered by the next decision; only the copies' destination and
	// location lists and the forward list itself are freshly allocated.
	s := v.Scratch()
	s.DestBuf = appendHeaderDests(s.DestBuf[:0], pkt)
	var tree *steiner.Tree
	switch {
	case g.opts.SteinerizedGrouping:
		tree = s.Steiner.SteinerizedMST(v.Pos(), s.DestBuf)
	case g.opts.MSTGrouping:
		tree = s.Steiner.EuclideanMST(v.Pos(), s.DestBuf)
	default:
		tree = s.Steiner.Build(v.Pos(), s.DestBuf, g.steinerOpts(v))
	}
	// FIFO worklist over a reused buffer; wi is the virtual "pop front".
	wl := tree.AppendChildren(0, -1, s.Worklist[:0])

	// Groups whose chosen next hop coincides are batched into a single
	// transmission: the receiver re-partitions the union anyway, so two
	// copies over the same link would only double the transmission count.
	// batchNext doubles as the first-seen emission order (what the map+order
	// pair used to encode); the handful of batches makes the linear scan
	// cheaper than a map.
	batchNext := s.BatchNext[:0]
	batches := s.BatchLabels[:0]
	voidBuf := s.VoidBuf[:0]

	for wi := 0; wi < len(wl); wi++ {
		p := wl[wi]
		for {
			group := groupDests(s, tree, p)
			next := groupNextHop(v, tree.Vertex(p).Pos, group)
			if next != -1 {
				bi := -1
				for i, n := range batchNext {
					if n == next {
						bi = i
						break
					}
				}
				if bi == -1 {
					batchNext = append(batchNext, next)
					batches = growBatch(batches)
					bi = len(batchNext) - 1
				}
				for _, d := range group {
					batches[bi] = append(batches[bi], d.Label)
				}
				break
			}
			// §4.1 splitting: promote the last child of p to a pivot.
			last := tree.LastChild(p, 0)
			if last == -1 {
				// A lone terminal with no qualifying neighbor: a true void
				// destination. A virtual pivot that splitting emptied (a
				// one-child Steiner point, as Steinerized MSTs leave) carries
				// none.
				if tree.Vertex(p).Kind != steiner.Virtual {
					voidBuf = append(voidBuf, tree.Vertex(p).Label)
				}
				break
			}
			tree.RemoveEdge(p, last)
			tree.AddEdge(0, last)
			wl = append(wl, last)
			if kids := tree.AppendChildren(p, 0, s.GroupBuf[:0]); len(kids) == 1 && tree.Vertex(p).Kind == steiner.Virtual {
				// A virtual pivot with one child dissolves into that child.
				only := kids[0]
				tree.RemoveEdge(p, only)
				tree.AddEdge(0, only)
				wl = append(wl, only)
				break
			}
			// Otherwise retry the same (now smaller) pivot group.
		}
	}
	for i, next := range batchNext {
		h := pkt.Sub(sortedCopy(batches[i]))
		h.Perimeter = false
		fwds = append(fwds, sim.Forward{To: next, Header: h})
	}
	s.Worklist = wl[:0]
	s.BatchNext = batchNext[:0]
	if len(batches) > len(s.BatchLabels) {
		s.BatchLabels = batches
	}
	sort.Ints(voidBuf)
	s.VoidBuf = voidBuf
	return fwds, voidBuf
}

// growBatch extends a batch-of-labels list by one empty batch, reusing inner
// capacity retained from previous decisions.
func growBatch(b [][]int) [][]int {
	if len(b) < cap(b) {
		b = b[:len(b)+1]
		b[len(b)-1] = b[len(b)-1][:0]
		return b
	}
	return append(b, nil)
}

// groupDests returns the non-virtual destinations in the subtree rooted at
// pivot p, sorted by label, at the locations the tree was built from (the
// header's). The result lives in the scratch GroupDests and is valid until
// the next groupDests call.
func groupDests(s *view.Scratch, tree *steiner.Tree, p int) []steiner.Dest {
	group := tree.AppendSubtreeDests(p, 0, s.GroupDests[:0])
	slices.SortFunc(group, func(a, b steiner.Dest) int { return cmp.Compare(a.Label, b.Label) })
	s.GroupDests = group
	return group
}
