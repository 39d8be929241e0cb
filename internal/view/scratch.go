package view

import (
	"gmp/internal/geom"
	"gmp/internal/steiner"
)

// Scratch is a decision arena: the reusable buffers of one forwarding
// decision. It holds only arenas for value-identical recomputation (tree
// construction, grouping worklists, distance tables), so reusing or
// discarding it never changes a decision's outcome.
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
	// destination records, the pivot worklist, the current group's
	// destination records, a pivot's children, the void accumulator, and
	// the per-next-hop label batches. The MST partition (routing.mstGroups)
	// reuses DestBuf, Worklist and GroupBuf (for a group's labels); SMT
	// borrows Worklist for its terminal list and GroupBuf for the tree
	// positions of a header's destinations, and PBM VoidBuf for its voids.
	DestBuf     []steiner.Dest
	Worklist    []int
	GroupDests  []steiner.Dest
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
