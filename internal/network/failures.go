package network

import "sort"

// WithFailures returns a degraded view of the network in which the given
// nodes' radios are dead, in addition to any already dead in nw: they keep
// their IDs and positions (so addressing stays stable) but have no links —
// they can neither send, receive, nor relay. The original network is
// unchanged.
//
// This models crash/battery failures for robustness experiments; protocols
// see the failure only through the adjacency (exactly as a real node would:
// a dead neighbor simply stops being heard).
func (nw *Network) WithFailures(failed []int) *Network {
	down := make([]bool, len(nw.phys))
	copy(down, nw.down)
	for _, id := range failed {
		if id >= 0 && id < len(down) {
			down[id] = true
		}
	}
	// Positions, reported-position overlay, cells and tiles are shared: they
	// are immutable and depend on positions alone.
	clone := *nw
	clone.down = down
	clone.tables = new(viewTables)
	clone.adj = make([][]int, len(nw.phys))
	for id, nbrs := range nw.adj {
		if down[id] {
			continue // dead node: no links at all
		}
		kept := make([]int, 0, len(nbrs))
		for _, n := range nbrs {
			if !down[n] {
				kept = append(kept, n)
			}
		}
		clone.adj[id] = kept
	}
	return &clone
}

// Alive reports whether node id has a working radio in this view.
func (nw *Network) Alive(id int) bool {
	return len(nw.down) == 0 || !nw.down[id]
}

// AliveIDs returns the sorted IDs of all nodes with working radios.
func (nw *Network) AliveIDs() []int {
	out := make([]int, 0, len(nw.phys))
	for id := range nw.phys {
		if nw.Alive(id) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}
