// Package planar provides the planarization and perimeter-routing substrate
// required by GMP's void handling (paper §4.1, refs [29, 9, 4, 13, 31]).
//
// It extracts the Gabriel graph (GG) or Relative Neighborhood Graph (RNG)
// from a unit-disk network — both computable by each node from purely local
// information — and implements GPSR-style right-hand-rule face traversal over
// the planar subgraph.
package planar

import (
	"fmt"

	"gmp/internal/geom"
	"gmp/internal/network"
)

// Kind selects the planarization rule.
type Kind int

const (
	// Gabriel keeps edge (u,v) iff no witness node lies strictly inside the
	// disk with diameter uv. This is GPSR's default and the denser of the
	// two planar subgraphs.
	Gabriel Kind = iota + 1
	// RelativeNeighborhood keeps edge (u,v) iff no witness node lies
	// strictly inside the lune of u and v. RNG ⊆ GG.
	RelativeNeighborhood
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Gabriel:
		return "gabriel"
	case RelativeNeighborhood:
		return "rng"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alternate returns the other planarization rule — the substrate a
// watchdog-restarted perimeter walk retries on. Distinct rules planarize
// inconsistent neighbor tables differently, so a walk that loops on one
// often terminates on the other.
func (k Kind) Alternate() Kind {
	if k == RelativeNeighborhood {
		return Gabriel
	}
	return RelativeNeighborhood
}

// Graph is a planar subgraph of a network's unit-disk graph. Neighbor lists
// are sorted counter-clockwise by bearing, which is the order the right-hand
// rule consumes them in.
type Graph struct {
	nw   *network.Network
	kind Kind
	adj  [][]int // node ID -> planar neighbors, CCW by bearing
}

// Planarize extracts the planar subgraph of kind from nw.
//
// Both rules are *local*: any witness for edge (u,v) lies within d(u,v) ≤
// radio range of u, so witnesses are always among u's unit-disk neighbors —
// a real node could run the same computation from its neighbor table alone.
//
// When nw reports true positions, a witness lies strictly closer than
// d(u,v) to both ends, so it is a neighbor of both, and u and v reach the
// same verdict on their shared edge: Planarize decides each undirected edge
// once and gives the verdict to both rows. A view with a reported-position
// overlay tests true-geometry neighbor sets against reported positions,
// where that symmetry fails, so each of its nodes runs LocalAdjacency on
// its own table.
func Planarize(nw *network.Network, kind Kind) *Graph {
	g := &Graph{nw: nw, kind: kind}
	if nw.ReportsTruePositions() {
		g.adj = planarizeEdges(nw, kind)
	} else {
		g.adj = planarizePerNode(nw, kind)
	}
	return g
}

// planarizePerNode runs LocalAdjacency at every node on its own table.
func planarizePerNode(nw *network.Network, kind Kind) [][]int {
	adj := make([][]int, nw.Len())
	for u := range adj {
		adj[u] = LocalAdjacency(nw.Pos(u), nw.Neighbors(u), nw.Pos, kind)
	}
	return adj
}

// planarizeEdges decides every undirected unit-disk edge (u,v), u < v, once
// over u's neighbor table, and returns the kept edges as rows packed into
// one exactly sized array, each sorted CCW by bearing as LocalAdjacency
// sorts. A node with no planar edge keeps a nil row, as LocalAdjacency
// returns.
func planarizeEdges(nw *network.Network, kind Kind) [][]int {
	pos := nw.Positions()
	n := len(pos)
	ends := make([]int, n+1) // planar degree of u, then the end of u's row
	var kept [][2]int32      // kept edges (u, v), u < v
	var npos []geom.Point    // u's neighbor positions, gathered once per u
	for u := 0; u < n; u++ {
		nbrs := nw.Neighbors(u)
		npos = npos[:0]
		for _, v := range nbrs {
			npos = append(npos, pos[v])
		}
		for i, v := range nbrs {
			if int(v) > u && !witnessed(kind, pos[u], npos, i) {
				kept = append(kept, [2]int32{int32(u), v})
				ends[u]++
				ends[v]++
			}
		}
	}
	for u := 1; u <= n; u++ {
		ends[u] += ends[u-1]
	}

	// Fill each row back from its end; ends[u] then marks u's row start,
	// which is where row u-1 ends.
	flat := make([]int, 2*len(kept))
	for _, e := range kept {
		u, v := int(e[0]), int(e[1])
		ends[u]--
		flat[ends[u]] = v
		ends[v]--
		flat[ends[v]] = u
	}
	adj := make([][]int, n)
	var keys []ccwKey
	for u := range adj {
		lo, hi := ends[u], ends[u+1]
		if lo == hi {
			continue
		}
		row := flat[lo:hi:hi]
		keys = keys[:0]
		for _, v := range row {
			keys = append(keys, ccwKey{geom.Bearing(pos[u], pos[v]), v})
		}
		sortCCW(keys, row)
		adj[u] = row
	}
	return adj
}

// witnessed reports whether a neighbor other than the i-th lies in the
// kind's witness region of the edge from upos to npos[i]. The region is
// built once for the edge, not once per candidate witness.
func witnessed(kind Kind, upos geom.Point, npos []geom.Point, i int) bool {
	if kind == RelativeNeighborhood {
		l := geom.NewLune(upos, npos[i])
		for _, w := range npos[:i] {
			if l.Contains(w) {
				return true
			}
		}
		for _, w := range npos[i+1:] {
			if l.Contains(w) {
				return true
			}
		}
		return false
	}
	d := geom.NewGabrielDisk(upos, npos[i])
	for _, w := range npos[:i] {
		if d.Contains(w) {
			return true
		}
	}
	for _, w := range npos[i+1:] {
		if d.Contains(w) {
			return true
		}
	}
	return false
}

// Kind returns the planarization rule the graph was extracted with.
func (g *Graph) Kind() Kind { return g.kind }

// Neighbors returns u's planar neighbors in CCW bearing order. The slice is
// shared; callers must not mutate it.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the planar degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Network returns the underlying network.
func (g *Graph) Network() *network.Network { return g.nw }

// NumEdges returns half the number of directed planar adjacencies. On a
// view that reports true positions the rows are symmetric and this is the
// number of undirected edges. On a reported-position view each node decides
// from its own table against reported positions, so u may keep v while v
// drops u; an edge kept by one end only counts one half, and the total is
// rounded down.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// State is the mutable perimeter-traversal state carried in a packet while
// it is in perimeter mode (the paper's PERIMODE flag plus GPSR's face
// bookkeeping).
type State struct {
	// Target is the geographic point the traversal is trying to approach.
	// For GMP groups this is the average location of the void destinations
	// (paper §4.1 step 2).
	Target geom.Point
	// Entry is the position of the node where perimeter mode was entered;
	// greedy recovery compares progress against it.
	Entry geom.Point
	// FaceEntry is the point where the packet entered the current face
	// (GPSR's Lf); face changes advance it along the Entry→Target line.
	FaceEntry geom.Point
	// Prev is the node the packet arrived from, -1 right after entering
	// perimeter mode.
	Prev int

	// The remaining fields are perimeter-watchdog bookkeeping
	// (view.PerimeterStep); they stay zero — and the wire format does not
	// carry them — unless a provider arms the watchdog.

	// FirstFrom/FirstTo record the first directed edge the current walk
	// took (-1 until the first step). Revisiting it means the traversal
	// closed a full loop without exiting.
	FirstFrom, FirstTo int
	// WalkHops and WalkDist accumulate the steps and substrate distance of
	// the current walk, for the watchdog's budget checks.
	WalkHops int
	WalkDist float64
	// Restarted marks that the watchdog already restarted this walk once;
	// AltPlanar routes the restarted walk over the alternate planarization.
	Restarted bool
	AltPlanar bool

	// Reverse flips the traversal to the left-hand rule (clockwise sweep),
	// giving concurrent face-routing protocols (MCFR) the second of the two
	// face directions. False preserves GPSR's right-hand rule exactly.
	Reverse bool
	// Junior marks the copy exploring the secondary direction of a
	// concurrent traversal; protocol-level, never consulted here.
	Junior bool
}

// Enter returns the initial perimeter state for a packet entering perimeter
// mode at node cur aiming at target.
func Enter(g *Graph, cur int, target geom.Point) State {
	return EnterAt(g.nw.Pos(cur), target)
}

// NextHop advances the right-hand-rule traversal one step from cur. It
// returns the chosen neighbor and the updated state, or ok=false when cur
// has no planar neighbors (an isolated node — traversal cannot proceed).
//
// The rule follows GPSR: take the first edge counter-clockwise from the
// reference direction (the incoming edge, or the cur→target line on entry).
// Before committing to an edge that properly crosses the FaceEntry→Target
// segment at a point closer to the target, the traversal switches to the
// adjacent face: FaceEntry moves to the crossing and the sweep continues
// with the next CCW edge.
func NextHop(g *Graph, cur int, st State) (next int, out State, ok bool) {
	return NextHopLocal(cur, g.nw.Pos(cur), g.adj[cur], g.nw.Pos, nil, st)
}

// Route runs a full perimeter traversal from start until either reaching a
// node whose position is strictly closer to the target than the entry point
// (recovery, the GPSR exit rule), visiting a node within exitRadius of the
// target, or exhausting maxHops. It returns the visited node sequence
// including start. Used directly by the GRD baseline and by tests; GMP
// drives NextHop step-by-step instead, because its recovery condition is a
// full re-run of the grouping procedure.
func Route(g *Graph, start int, target geom.Point, maxHops int) (path []int, recovered bool) {
	st := Enter(g, start, target)
	path = []int{start}
	cur := start
	for hop := 0; hop < maxHops; hop++ {
		next, nst, ok := NextHop(g, cur, st)
		if !ok {
			return path, false
		}
		st = nst
		cur = next
		path = append(path, cur)
		if g.nw.Pos(cur).Dist(target) < st.Entry.Dist(target)-geom.Eps {
			return path, true
		}
	}
	return path, false
}
