package view

import (
	"math"

	"gmp/internal/geom"
	"gmp/internal/steiner"
)

// Scratch is a decision arena: the reusable buffers of one forwarding
// decision. It holds only memoized pure computations (distance terms of the
// current decision) and arenas for value-identical recomputation (tree
// construction, grouping worklists), so reusing or discarding it never
// changes a decision's outcome.
//
// Ownership: a Scratch belongs to whoever runs decisions — one per kernel
// lane, one per service decider — and is lent to the deciding node's view by
// Provider.At. One owner runs one decision at a time, so one arena serves
// every node, degree and destination count it decides for, and the arenas
// stay warm across decisions without growing with the node count.
//
// Buffer validity: every exported buffer below is valid for the duration of
// one forwarding decision and is clobbered by the next decision on the same
// arena. Decisions must never return scratch-backed slices: a forward list
// and its headers' slices are freshly allocated or the arriving packet's
// own. The purity test runs one decision twice on one arena, so a
// scratch-backed output would compare a buffer with itself.
type Scratch struct {
	// Memo caches per-decision distance terms for the group next-hop
	// selection (see DistMemo).
	Memo DistMemo
	// ColBuf is a reusable column-index buffer for Memo lookups.
	ColBuf []int

	// Steiner is the tree-construction arena: GMP rebuilds an rrSTR
	// (or ablation MST) tree here on every forwarding decision, and LGS and
	// MCFR their partition MST, reusing the vertex/edge/queue storage across
	// decisions.
	Steiner steiner.Builder
	// KMB is SMT's source-tree arena: the Dijkstra rows and working sets of
	// the Kou–Markowsky–Berman tree the source builds for every task.
	KMB steiner.KMBArena
	// PBM holds PBM's subset-search tables.
	PBM PBMArena
	// SMT holds the storage that roots SMT's source tree into a route.
	SMT SMTArena

	// GMP grouping-walk buffers (see routing.forwardGroups): the header
	// destination records, the pivot worklist, the current group's labels,
	// the void accumulator, and the per-next-hop label batches. The MST
	// partition (routing.mstGroups) reuses the first three; SMT borrows
	// Worklist for its terminal list and GroupBuf for the tree positions of
	// a header's destinations, and PBM VoidBuf for its voids.
	DestBuf     []steiner.Dest
	Worklist    []int
	GroupBuf    []int
	VoidBuf     []int
	BatchNext   []int
	BatchLabels [][]int
	// LocBuf backs the perimeter-entry centroid computation.
	LocBuf []geom.Point
}

// PBMArena backs one PBM decision (see routing.PBM): the distance of every
// neighbor to every header destination, found by the one neighbor scan per
// destination, and the candidate × routable-destination table the subset
// search reads, with its running minima and index lists.
type PBMArena struct {
	// NbrDist is destination-major: NbrDist[j·deg+i] is the distance from
	// neighbor i to header destination j.
	NbrDist []float64
	// Table is candidate-major: Table[c·R+r] is the distance from candidate
	// c to routable destination r.
	Table []float64
	// Mins holds the subset search's running minima, one row of R per
	// search level.
	Mins []float64
	// Routable lists the routable destinations' header indices, Cands the
	// candidates' neighbor indices, Members the chosen candidates, Owner
	// each routable destination's assigned member (an index into Members),
	// and Counts how many destinations each member got.
	Routable, Cands, Members, Owner, Counts []int
	// Taken marks the candidates the greedy forward selection has chosen.
	Taken []bool
}

// SMTArena backs the rooting of SMT's source tree into a preorder route
// (see routing.SMT): the tree's arcs in both directions, sorted by tail,
// and the depth-first walk's stack.
type SMTArena struct {
	Arcs  [][2]int
	Stack []TreeFrame
}

// TreeFrame is one frame of that walk: a vertex, its preorder index, its
// parent and its next arc.
type TreeFrame struct{ V, At, Parent, Arc int }

// DistMemo memoizes the point-to-destination distance matrix of one
// forwarding decision: rows are the deciding node (row 0) and its neighbors
// (row i+1 for Neighbors()[i]), columns are the packet's destinations.
//
// GMP's pivot walk re-evaluates overlapping destination groups while
// splitting (§4.1), recomputing Σ-distance terms from scratch each time —
// O(|neighbors|·|dests|) per candidate evaluation. The memo computes each
// (point, destination) distance at most once per decision.
//
// Bit-exactness: SumRow always adds the memoized distances in the caller's
// column order, which is the group's destination order — the same order and
// the same float64 values the unmemoized loop used, so sums are
// bit-identical to recomputation. (Never cache the *sums*: incrementally
// updated sums drift from freshly accumulated ones in the low bits.)
type DistMemo struct {
	col  map[int]int  // destination ID -> column
	locs []geom.Point // column -> destination location (header copy)
	mat  [][]float64  // [row][column]; NaN = not yet computed
}

// Begin prepares the memo for one decision with the given row count
// (1 + neighbor count) and the packet's destination IDs/locations. Previous
// decision state is discarded.
func (m *DistMemo) Begin(rows int, dests []int, locs []geom.Point) {
	if m.col == nil {
		m.col = make(map[int]int, len(dests))
	} else {
		for k := range m.col {
			delete(m.col, k)
		}
	}
	for i, d := range dests {
		m.col[d] = i
	}
	m.locs = append(m.locs[:0], locs...)
	if cap(m.mat) < rows {
		m.mat = make([][]float64, rows)
	}
	m.mat = m.mat[:rows]
	cols := len(dests)
	for i := range m.mat {
		if cap(m.mat[i]) < cols {
			m.mat[i] = make([]float64, cols)
		}
		m.mat[i] = m.mat[i][:cols]
		for j := range m.mat[i] {
			m.mat[i][j] = math.NaN()
		}
	}
}

// Cols translates a destination-ID subset into column indices, appending to
// buf (pass buf[:0] of a reusable slice). IDs not registered by Begin are
// a programming error and panic.
func (m *DistMemo) Cols(ids []int, buf []int) []int {
	for _, id := range ids {
		c, ok := m.col[id]
		if !ok {
			panic("view: destination not registered with DistMemo.Begin")
		}
		buf = append(buf, c)
	}
	return buf
}

// SumRow returns Σ over cols of dist(from, destination), memoizing each
// term in the given row. Terms are accumulated in cols order.
func (m *DistMemo) SumRow(row int, from geom.Point, cols []int) float64 {
	r := m.mat[row]
	var total float64
	for _, c := range cols {
		d := r[c]
		if math.IsNaN(d) {
			d = from.Dist(m.locs[c])
			r[c] = d
		}
		total += d
	}
	return total
}
