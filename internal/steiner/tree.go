// Package steiner implements the tree-construction heart of the GMP protocol
// (Wu & Candan, ICDCS 2006): the reduction-ratio measure, the rrSTR heuristic
// for virtual Euclidean Steiner trees (basic and radio-range-aware), a Prim
// Euclidean minimum spanning tree used by the LGS baseline, and the
// Kou–Markowsky–Berman graph Steiner heuristic used by the centralized SMT
// baseline.
package steiner

import (
	"errors"
	"fmt"
	"strings"

	"gmp/internal/geom"
)

// VertexKind distinguishes the three vertex roles of an rrSTR tree.
type VertexKind int

const (
	// Source is the root of the tree: the current transmitting node.
	Source VertexKind = iota + 1
	// Terminal is an actual multicast destination.
	Terminal
	// Virtual is a Steiner point introduced by the heuristic; it does not
	// correspond to any physical node.
	Virtual
)

// String implements fmt.Stringer.
func (k VertexKind) String() string {
	switch k {
	case Source:
		return "source"
	case Terminal:
		return "terminal"
	case Virtual:
		return "virtual"
	default:
		return fmt.Sprintf("VertexKind(%d)", int(k))
	}
}

// Vertex is a node of a multicast tree. Label carries the caller's identifier
// for terminals (for example a network node ID); it is -1 for the source and
// for virtual vertices.
type Vertex struct {
	ID    int
	Kind  VertexKind
	Pos   geom.Point
	Label int
}

// Edge is an undirected tree edge. Seq records the order in which edges were
// inserted by the construction algorithm; the GMP group-splitting rule
// (paper §4.1) depends on it to find the "last child" of a pivot.
type Edge struct {
	A, B int
	Seq  int
}

// Tree is a multicast tree rooted at a source vertex (always ID 0). Trees are
// mutable: the GMP routing layer removes and re-adds edges while splitting
// destination groups around voids.
//
// Vertex IDs are dense, so the adjacency is a slice indexed by vertex ID.
// Reset rewinds a tree to a bare source while keeping every internal buffer,
// which is what lets a Builder construct one tree per forwarding decision
// without allocating in steady state.
type Tree struct {
	verts   []Vertex
	edges   []Edge
	adj     [][]int // vertex ID -> indices into edges
	nextSeq int

	// seqBuf and stackBuf are reusable scratch for the Append* traversals.
	seqBuf   []int
	stackBuf []int
}

// NewTree returns a tree containing only the source vertex at pos.
func NewTree(pos geom.Point) *Tree {
	t := &Tree{}
	t.Reset(pos)
	return t
}

// Reset rewinds the tree to a bare source vertex at pos, retaining all
// internal storage. It makes the zero Tree usable and lets builders reuse one
// tree across constructions.
func (t *Tree) Reset(pos geom.Point) {
	t.verts = t.verts[:0]
	t.edges = t.edges[:0]
	t.adj = t.adj[:0]
	t.nextSeq = 0
	t.verts = append(t.verts, Vertex{ID: 0, Kind: Source, Pos: pos, Label: -1})
	t.growAdj()
}

// growAdj extends the adjacency by one vertex slot, reusing retained edge-
// index buffers from before the last Reset when available.
func (t *Tree) growAdj() {
	if len(t.adj) < cap(t.adj) {
		t.adj = t.adj[:len(t.adj)+1]
		t.adj[len(t.adj)-1] = t.adj[len(t.adj)-1][:0]
	} else {
		t.adj = append(t.adj, nil)
	}
}

// AddTerminal appends a terminal vertex and returns its ID. Label is the
// caller's identifier for the destination.
func (t *Tree) AddTerminal(pos geom.Point, label int) int {
	id := len(t.verts)
	t.verts = append(t.verts, Vertex{ID: id, Kind: Terminal, Pos: pos, Label: label})
	t.growAdj()
	return id
}

// AddVirtual appends a virtual (Steiner-point) vertex and returns its ID.
func (t *Tree) AddVirtual(pos geom.Point) int {
	id := len(t.verts)
	t.verts = append(t.verts, Vertex{ID: id, Kind: Virtual, Pos: pos, Label: -1})
	t.growAdj()
	return id
}

// Vertex returns the vertex with the given ID.
func (t *Tree) Vertex(id int) Vertex { return t.verts[id] }

// NumVertices returns the number of vertices, including source and virtuals.
func (t *Tree) NumVertices() int { return len(t.verts) }

// NumEdges returns the number of live edges.
func (t *Tree) NumEdges() int { return len(t.edges) }

// Vertices returns a copy of all vertices.
func (t *Tree) Vertices() []Vertex {
	out := make([]Vertex, len(t.verts))
	copy(out, t.verts)
	return out
}

// Edges returns a copy of all live edges.
func (t *Tree) Edges() []Edge {
	out := make([]Edge, len(t.edges))
	copy(out, t.edges)
	return out
}

// AddEdge inserts the undirected edge (a, b) and returns its insertion
// sequence number.
func (t *Tree) AddEdge(a, b int) int {
	seq := t.nextSeq
	t.nextSeq++
	idx := len(t.edges)
	t.edges = append(t.edges, Edge{A: a, B: b, Seq: seq})
	t.adj[a] = append(t.adj[a], idx)
	t.adj[b] = append(t.adj[b], idx)
	return seq
}

// RemoveEdge deletes the undirected edge (a, b). It reports whether such an
// edge existed.
func (t *Tree) RemoveEdge(a, b int) bool {
	for idx, e := range t.edges {
		if e.A < 0 { // tombstone
			continue
		}
		if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
			t.detachEdge(idx)
			return true
		}
	}
	return false
}

// detachEdge tombstones edges[idx] and compacts it away.
func (t *Tree) detachEdge(idx int) {
	e := t.edges[idx]
	t.adj[e.A] = removeInt(t.adj[e.A], idx)
	t.adj[e.B] = removeInt(t.adj[e.B], idx)
	// Compact: move the last edge into idx and fix adjacency references.
	last := len(t.edges) - 1
	if idx != last {
		moved := t.edges[last]
		t.edges[idx] = moved
		t.adj[moved.A] = replaceInt(t.adj[moved.A], last, idx)
		t.adj[moved.B] = replaceInt(t.adj[moved.B], last, idx)
	}
	t.edges = t.edges[:last]
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func replaceInt(s []int, old, new int) []int {
	for i, x := range s {
		if x == old {
			s[i] = new
		}
	}
	return s
}

// edgeOther returns the endpoint of edges[idx] that is not v.
func (t *Tree) edgeOther(idx, v int) int {
	e := t.edges[idx]
	if e.A == v {
		return e.B
	}
	return e.A
}

// Neighbors returns the IDs adjacent to v, in no particular order.
func (t *Tree) Neighbors(v int) []int {
	idxs := t.adj[v]
	out := make([]int, 0, len(idxs))
	for _, i := range idxs {
		e := t.edges[i]
		if e.A == v {
			out = append(out, e.B)
		} else {
			out = append(out, e.A)
		}
	}
	return out
}

// Degree returns the number of live edges incident to v.
func (t *Tree) Degree(v int) int { return len(t.adj[v]) }

// Children returns the children of v in the tree rooted at the source,
// ordered by edge insertion sequence (oldest first). parent must be v's
// parent ID, or -1 when v is the source.
func (t *Tree) Children(v, parent int) []int {
	return t.AppendChildren(v, parent, make([]int, 0, len(t.adj[v])))
}

// AppendChildren appends the children of v (rooted at the source, given
// parent) to buf in edge insertion-sequence order and returns the extended
// slice. Pass buf[:0] of a reusable slice for an allocation-free call; the
// ordering is identical to Children.
func (t *Tree) AppendChildren(v, parent int, buf []int) []int {
	start := len(buf)
	seqs := t.seqBuf[:0]
	for _, i := range t.adj[v] {
		e := t.edges[i]
		other := e.B
		if e.A != v {
			other = e.A
		}
		if other == parent {
			continue
		}
		// Insertion sort by Seq; sequence numbers are unique, so this yields
		// exactly the order sort-by-seq produced.
		buf = append(buf, 0)
		seqs = append(seqs, 0)
		k := len(seqs) - 1
		for k > 0 && seqs[k-1] > e.Seq {
			seqs[k] = seqs[k-1]
			buf[start+k] = buf[start+k-1]
			k--
		}
		seqs[k] = e.Seq
		buf[start+k] = other
	}
	t.seqBuf = seqs[:0]
	return buf
}

// LastChild returns the child of v (rooted at source, given parent) whose
// connecting edge was inserted most recently, or -1 if v has no children.
func (t *Tree) LastChild(v, parent int) int {
	best, bestSeq := -1, -1
	for _, i := range t.adj[v] {
		e := t.edges[i]
		other := e.B
		if e.A != v {
			other = e.A
		}
		if other == parent {
			continue
		}
		if e.Seq > bestSeq {
			best, bestSeq = other, e.Seq
		}
	}
	return best
}

// Pivots returns the children of the source, ordered by insertion sequence.
// In GMP terminology these are the subtree roots that partition the
// destinations into groups (paper §4).
func (t *Tree) Pivots() []int { return t.Children(0, -1) }

// SubtreeTerminals returns the terminal vertex IDs in the subtree hanging off
// root when the tree is rooted at the source and root's parent is parent. If
// root itself is a terminal it is included.
func (t *Tree) SubtreeTerminals(root, parent int) []int {
	var out []int
	t.walk(root, parent, func(v Vertex) {
		if v.Kind == Terminal {
			out = append(out, v.ID)
		}
	})
	return out
}

// AppendSubtreeLabels appends the Labels of the terminal vertices in the
// subtree hanging off root (excluding the parent side) to buf and returns the
// extended slice. The traversal is iterative and allocation-free when buf has
// capacity; the append order is unspecified — callers that need a
// deterministic order must sort (GMP's grouping does).
func (t *Tree) AppendSubtreeLabels(root, parent int, buf []int) []int {
	return appendTerminals(t, root, parent, buf, func(v *Vertex) int { return v.Label })
}

// AppendSubtreeDests is AppendSubtreeLabels for the terminals' destination
// records: each terminal's Label with its Pos, which is the location it was
// added with.
func (t *Tree) AppendSubtreeDests(root, parent int, buf []Dest) []Dest {
	return appendTerminals(t, root, parent, buf, func(v *Vertex) Dest { return Dest{Pos: v.Pos, Label: v.Label} })
}

// appendTerminals appends rec(v) for every terminal v in the subtree hanging
// off root (excluding the parent side), walking it iteratively on the tree's
// stack buffer.
func appendTerminals[T any](t *Tree, root, parent int, buf []T, rec func(*Vertex) T) []T {
	st := append(t.stackBuf[:0], root, parent)
	for len(st) > 0 {
		p := st[len(st)-1]
		v := st[len(st)-2]
		st = st[:len(st)-2]
		vert := &t.verts[v]
		if vert.Kind == Terminal {
			buf = append(buf, rec(vert))
		}
		for _, i := range t.adj[v] {
			e := t.edges[i]
			other := e.B
			if e.A != v {
				other = e.A
			}
			if other != p {
				st = append(st, other, v)
			}
		}
	}
	t.stackBuf = st[:0]
	return buf
}

// walk visits the subtree under root (excluding the parent side) in DFS
// order.
func (t *Tree) walk(root, parent int, visit func(Vertex)) {
	visit(t.verts[root])
	for _, c := range t.Children(root, parent) {
		t.walk(c, root, visit)
	}
}

// TotalLength returns the summed Euclidean length of all live edges.
func (t *Tree) TotalLength() float64 {
	var total float64
	for _, e := range t.edges {
		total += t.verts[e.A].Pos.Dist(t.verts[e.B].Pos)
	}
	return total
}

// TerminalIDs returns the IDs of all terminal vertices.
func (t *Tree) TerminalIDs() []int {
	var out []int
	for _, v := range t.verts {
		if v.Kind == Terminal {
			out = append(out, v.ID)
		}
	}
	return out
}

// Validation errors returned by Validate.
var (
	ErrCycle        = errors.New("steiner: tree contains a cycle")
	ErrDisconnected = errors.New("steiner: a terminal is not connected to the source")
)

// Validate checks the structural invariants the routing layer depends on:
// the edge set is acyclic and every terminal is connected to the source.
// Virtual vertices may be orphaned (they are simply unused).
func (t *Tree) Validate() error {
	seen := make(map[int]bool, len(t.verts))
	// BFS from source, detecting cycles via a visited-edge count argument:
	// in an acyclic graph, the number of edges reachable from the source is
	// exactly the number of reachable vertices minus one.
	queue := []int{0}
	seen[0] = true
	reachableEdges := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, i := range t.adj[v] {
			e := t.edges[i]
			other := e.B
			if e.A != v {
				other = e.A
			}
			reachableEdges++ // counted once per endpoint; halved below
			if !seen[other] {
				seen[other] = true
				queue = append(queue, other)
			}
		}
	}
	reachableVerts := len(seen)
	if reachableEdges/2 != reachableVerts-1 {
		return ErrCycle
	}
	for _, v := range t.verts {
		if v.Kind == Terminal && !seen[v.ID] {
			return fmt.Errorf("%w: terminal %d (label %d)", ErrDisconnected, v.ID, v.Label)
		}
	}
	return nil
}

// String renders the tree as an indented outline rooted at the source, for
// debugging and the gmptree CLI.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, 0, -1, 0)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, v, parent, depth int) {
	vert := t.verts[v]
	fmt.Fprintf(b, "%s%s #%d %s", strings.Repeat("  ", depth), vert.Kind, vert.ID, vert.Pos)
	if vert.Kind == Terminal {
		fmt.Fprintf(b, " label=%d", vert.Label)
	}
	b.WriteByte('\n')
	for _, c := range t.Children(v, parent) {
		t.render(b, c, v, depth+1)
	}
}
