package routing

import (
	"cmp"
	"slices"
	"sort"

	"gmp/internal/network"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// SMT is the paper's centralized baseline (§5): the source — assumed to know
// the positions and connectivity of the whole network — computes a
// close-to-optimal graph Steiner tree with the Kou–Markowsky–Berman
// heuristic [16] and embeds the routing tree in the packet; every node
// forwards copies to its children in that tree. The paper includes it for
// comparison only, since global knowledge is impractical at scale.
//
// SMT is the one protocol allowed to hold a network reference: its *source*
// is defined to be omniscient. Per-hop decisions (Decide) still use only the
// packet's embedded route, never the network.
type SMT struct {
	nw *network.Network
}

var _ Protocol = (*SMT)(nil)

func init() {
	MustRegister(Spec{Name: "SMT", PaperRank: 5, Flags: FlagCentralized, Progress: ProgressSourceRouted,
		New: func(c Ctx) Protocol { return NewSMT(c.Network) }})
}

// NewSMT returns the centralized source-routed baseline over nw.
func NewSMT(nw *network.Network) *SMT { return &SMT{nw: nw} }

// Name implements Protocol.
func (s *SMT) Name() string { return "SMT" }

// Start implements sim.Handler: build the KMB tree, root it at the source,
// embed it in the packet, and forward per-subtree copies.
func (s *SMT) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	src := v.Self()
	sc := v.Scratch()
	// Destinations unreachable in the connectivity graph can never be
	// served; compute the tree over the reachable ones so the rest of the
	// task still completes. The terminals are the source and the reachable
	// destinations.
	comp := s.nw.Component(src)
	terminals := append(sc.Worklist[:0], src)
	var unreachable []int // the drop copy's header: fresh, not scratch
	for _, d := range pkt.Dests {
		if s.nw.Component(d) == comp {
			terminals = append(terminals, d)
		} else {
			unreachable = append(unreachable, d)
		}
	}
	sc.Worklist = terminals
	// Bill the unreachable destinations as an explicit protocol drop so the
	// conservation invariant (originated ≡ delivered + drops) holds; a silent
	// discard would leak them from the accounting.
	var fwds []sim.Forward
	if len(unreachable) > 0 {
		fwds = dropOnly(pkt.Sub(unreachable))
	}
	if len(terminals) == 1 {
		return fwds
	}
	// The paper's SMT computes a close-to-optimal Steiner tree over node
	// *positions*: KMB under Euclidean edge weights. Short graph edges are
	// cheap in meters yet each still costs one transmission, which is why
	// the distributed GMP can beat this centralized baseline on hop count
	// (§5.1) — see DESIGN.md §3.
	edges, err := sc.KMB.KMBWeighted(s.nw.Graph(), terminals)
	if err != nil {
		// Cannot happen for reachable terminals; fail the task loudly by
		// dropping rather than panicking.
		return append(fwds, dropOnly(pkt.Sub(slices.Clone(terminals[1:])))...)
	}
	// The unreachable destinations lie outside the tree, so the children's
	// copies leave them out.
	routed := pkt.Header
	routed.Route = rootTree(edges, src, &sc.SMT)
	return append(fwds, forwardChildren(v, &routed)...)
}

// Decide implements sim.Handler.
func (s *SMT) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Route == nil {
		return dropOnly(pkt.Header)
	}
	return forwardChildren(v, &pkt.Header)
}

// forwardChildren emits one copy per child of v in the packet's tree whose
// subtree still holds destinations aboard, carrying those destinations in
// ascending order. A destination is in a child's subtree when its preorder
// index lies in the child's run; one spliced aboard after the source built
// the tree counts wherever it sits in the tree, and nowhere if it is not in
// it.
func forwardChildren(v view.NodeView, h *sim.Header) []sim.Forward {
	rt := h.Route
	i := rt.Find(v.Self())
	if i < 0 {
		return nil
	}
	sc := v.Scratch()
	at := sc.GroupBuf[:0] // preorder index of each destination aboard
	for _, d := range h.Dests {
		at = append(at, rt.Find(d))
	}
	sc.GroupBuf = at
	var fwds []sim.Forward
	for c := i + 1; c < rt.End[i]; c = rt.End[c] {
		n := 0
		for _, p := range at {
			if p >= c && p < rt.End[c] {
				n++
			}
		}
		if n == 0 {
			continue
		}
		sub := make([]int, 0, n)
		for j, p := range at {
			if p >= c && p < rt.End[c] {
				sub = append(sub, h.Dests[j])
			}
		}
		sort.Ints(sub)
		fwds = append(fwds, sim.Forward{To: rt.Node[c], Header: h.Sub(sub)})
	}
	return fwds
}

// rootTree orients a tree's edge list at root into a preorder Route, each
// vertex's children in ascending ID order. The walk's storage lives in a;
// the Route is fresh.
func rootTree(edges [][2]int, root int, a *view.SMTArena) *sim.Route {
	arcs := a.Arcs[:0]
	for _, e := range edges {
		arcs = append(arcs, e, [2]int{e[1], e[0]})
	}
	a.Arcs = arcs
	slices.SortFunc(arcs, func(x, y [2]int) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	firstArc := func(v int) int {
		i, _ := slices.BinarySearchFunc(arcs, v, func(e [2]int, v int) int { return cmp.Compare(e[0], v) })
		return i
	}
	n := len(edges) + 1
	rt := &sim.Route{Node: make([]int, 1, n), End: make([]int, n)}
	rt.Node[0] = root
	// Depth-first walk: each frame is a vertex, its preorder index, its
	// parent and its next arc.
	stack := append(a.Stack[:0], view.TreeFrame{V: root, At: 0, Parent: -1, Arc: firstArc(root)})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.Arc < len(arcs) && arcs[f.Arc][0] == f.V {
			w := arcs[f.Arc][1]
			f.Arc++
			if w != f.Parent {
				stack = append(stack, view.TreeFrame{V: w, At: len(rt.Node), Parent: f.V, Arc: firstArc(w)})
				rt.Node = append(rt.Node, w)
			}
			continue
		}
		rt.End[f.At] = len(rt.Node)
		stack = stack[:len(stack)-1]
	}
	a.Stack = stack
	rt.ByID = make([]int, len(rt.Node))
	for i := range rt.ByID {
		rt.ByID[i] = i
	}
	slices.SortFunc(rt.ByID, func(a, b int) int { return cmp.Compare(rt.Node[a], rt.Node[b]) })
	return rt
}
