package routing

import (
	"sort"

	"gmp/internal/network"
	"gmp/internal/sim"
	"gmp/internal/steiner"
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
	MustRegister(Spec{Name: "SMT", PaperRank: 5, Flags: FlagCentralized,
		New: func(c Ctx) Protocol { return NewSMT(c.Network) }})
}

// NewSMT returns the centralized source-routed baseline over nw.
func NewSMT(nw *network.Network) *SMT { return &SMT{nw: nw} }

// Name implements Protocol.
func (s *SMT) Name() string { return "SMT" }

// Start implements sim.Handler: build the KMB tree, root it at the source,
// embed the children map in the packet, and forward per-subtree copies.
func (s *SMT) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	src := v.Self()
	// Destinations unreachable in the connectivity graph can never be
	// served; compute the tree over the reachable ones so the rest of the
	// task still completes.
	comp := s.nw.Component(src)
	reachable := make([]int, 0, len(pkt.Dests))
	var unreachable []int
	for _, d := range pkt.Dests {
		if s.nw.Component(d) == comp {
			reachable = append(reachable, d)
		} else {
			unreachable = append(unreachable, d)
		}
	}
	// Bill the unreachable destinations as an explicit protocol drop so the
	// conservation invariant (originated ≡ delivered + drops) holds; a silent
	// discard would leak them from the accounting.
	var fwds []sim.Forward
	if len(unreachable) > 0 {
		fwds = dropOnly(pkt.CloneFor(unreachable))
	}
	if len(reachable) == 0 {
		return fwds
	}
	terminals := append([]int{src}, reachable...)
	// The paper's SMT computes a close-to-optimal Steiner tree over node
	// *positions*: KMB under Euclidean edge weights. Short graph edges are
	// cheap in meters yet each still costs one transmission, which is why
	// the distributed GMP can beat this centralized baseline on hop count
	// (§5.1) — see DESIGN.md §3.
	edges, err := steiner.KMBWeighted(s.nw.Graph(), terminals)
	if err != nil {
		// Cannot happen for reachable terminals; fail the task loudly by
		// dropping rather than panicking.
		return append(fwds, dropOnly(pkt.CloneFor(reachable))...)
	}
	copyPkt := pkt.CloneFor(reachable)
	copyPkt.Route = rootTree(edges, src)
	return append(fwds, s.forwardChildren(src, copyPkt)...)
}

// Decide implements sim.Handler.
func (s *SMT) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Route == nil {
		return dropOnly(pkt)
	}
	return s.forwardChildren(v.Self(), pkt)
}

// forwardChildren emits one copy per child whose subtree still contains
// pending destinations.
func (s *SMT) forwardChildren(node int, pkt *sim.Packet) []sim.Forward {
	pending := make(map[int]bool, len(pkt.Dests))
	for _, d := range pkt.Dests {
		pending[d] = true
	}
	var fwds []sim.Forward
	for _, child := range pkt.Route[node] {
		var sub []int
		collectSubtree(pkt.Route, child, pending, &sub)
		if len(sub) == 0 {
			continue
		}
		sort.Ints(sub)
		fwds = append(fwds, sim.Forward{To: child, Pkt: pkt.CloneFor(sub)})
	}
	return fwds
}

// rootTree orients an undirected edge list into a children map rooted at
// root, with children sorted for determinism.
func rootTree(edges [][2]int, root int) map[int][]int {
	adj := make(map[int][]int)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	children := make(map[int][]int, len(adj))
	visited := map[int]bool{root: true}
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		kids := adj[v]
		sort.Ints(kids)
		for _, w := range kids {
			if !visited[w] {
				visited[w] = true
				children[v] = append(children[v], w)
				queue = append(queue, w)
			}
		}
	}
	return children
}

// collectSubtree appends to out the pending destinations in the subtree
// rooted at v of the children map.
func collectSubtree(children map[int][]int, v int, pending map[int]bool, out *[]int) {
	if pending[v] {
		*out = append(*out, v)
	}
	for _, c := range children[v] {
		collectSubtree(children, c, pending, out)
	}
}
