package steiner

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Graph is an undirected graph over vertex indices 0..N-1, given as
// adjacency lists. It models the sensor connectivity graph (unit-disk
// links).
type Graph struct {
	N   int
	Adj [][]int
	// W holds edge lengths parallel to Adj: W[v][i] is the length of the
	// edge between v and Adj[v][i], the same from either end.
	W [][]float64
}

// edgeLen returns the length of the edge from a to its neighbor b.
func (g Graph) edgeLen(a, b int) float64 {
	return g.W[a][slices.Index(g.Adj[a], b)]
}

// ErrUnreachableTerminal is returned by KMBWeighted when some terminal
// cannot be reached from the others in the graph.
var ErrUnreachableTerminal = errors.New("steiner: terminal unreachable")

// KMBWeighted computes a graph Steiner tree over the given terminals with
// the Kou–Markowsky–Berman heuristic (paper ref [16]) under the edge lengths
// g.W. The paper's SMT baseline uses Euclidean distances as lengths: the
// source knows all node positions and computes a close-to-optimal Steiner
// tree in the geometric sense, which is exactly what makes its *hop count*
// beatable by GMP (short graph edges are cheap in meters but each one still
// costs a transmission).
//
// The classical 2(1-1/ℓ)-approximation guarantee applies with respect to the
// supplied lengths. The returned edges are normalized (a < b) and sorted.
// KMBWeighted runs in a fresh arena; callers that build many trees keep a
// KMBArena instead.
func KMBWeighted(g Graph, terminals []int) ([][2]int, error) {
	return new(KMBArena).KMBWeighted(g, terminals)
}

// KMBArena holds the working storage of KMB runs — the terminal tables,
// the Dijkstra rows and the union-subgraph Prim pass — so that a caller
// building one tree after another allocates it once. The zero value is
// ready to use. Like Builder, an arena is not safe for concurrent use: one
// lives in each decision arena (view.Scratch), owned by one kernel lane or
// service decider.
type KMBArena struct {
	s        rowSearch
	terms    []int
	inTree   []bool
	bestCost []float64
	bestFrom []int // index into terms
	// path[j] holds the edges of the shortest path from terms[j] to
	// terms[bestFrom[j]], read off that terminal's row when it set
	// bestCost[j].
	path    [][][2]int
	targets []int
	limits  []float64
	union   [][2]int
	// unionTree's storage; joined and hasTerm are N long and all false
	// between calls.
	arcs    [][2]int
	joined  []bool
	hasTerm []bool
	pq      candQueue
	tree    []primCand
	out     [][2]int
}

// KMBWeighted is the package KMBWeighted in the arena's storage. The
// returned edges are valid only until the next call on the same arena.
//
// Lengths must be non-negative. Shortest paths are computed lazily: a
// terminal's Dijkstra row runs only when the metric-closure Prim adds that
// terminal to its tree, and stops once no terminal outside the tree can get
// closer to the tree through it — each is settled, or at least as far from
// the row's source as from the tree already. Settled distances and parents
// are final, a settled vertex's parent chain is settled too, and Prim takes
// a row's distance only when it is strictly shorter, so the tree is the one
// full rows from every terminal would give.
//
// Rows share one parent array. A row's parents do not change once it has
// run, so the path a metric-closure edge expands to in step 4 is read off
// the row as soon as the row offers that edge, not after the last row.
func (a *KMBArena) KMBWeighted(g Graph, terminals []int) ([][2]int, error) {
	if len(terminals) == 0 {
		return nil, nil
	}
	for _, t := range terminals {
		if t < 0 || t >= g.N {
			return nil, fmt.Errorf("steiner: terminal %d out of range [0,%d)", t, g.N)
		}
	}
	if len(terminals) == 1 {
		return nil, nil
	}
	s := &a.s
	s.begin(g)
	// isTerm marks exactly the terms; it is cleared on the way out.
	isTerm := s.isTerm
	defer func() {
		for _, t := range a.terms {
			isTerm[t] = false
		}
	}()

	// Deduplicate terminals while preserving order.
	terms := a.terms[:0]
	for _, t := range terminals {
		if !isTerm[t] {
			isTerm[t] = true
			terms = append(terms, t)
		}
	}
	a.terms = terms
	k := len(terms)
	if k == 1 {
		return [][2]int{}, nil
	}

	// Steps 1-3: Prim MST over the terminal metric closure. Each terminal's
	// row of the closure is computed when the terminal joins the tree, and
	// the last to join needs none.
	inTree := resize(a.inTree, k)
	bestCost := resize(a.bestCost, k)
	bestFrom := resize(a.bestFrom, k)
	a.inTree, a.bestCost, a.bestFrom = inTree, bestCost, bestFrom
	clear(inTree)
	clear(bestFrom)
	for len(a.path) < k {
		a.path = append(a.path, nil)
	}
	path := a.path
	row := func(i int) {
		targets, limits := a.targets[:0], a.limits[:0]
		for j := 0; j < k; j++ {
			if !inTree[j] {
				targets = append(targets, terms[j])
				limits = append(limits, bestCost[j])
			}
		}
		a.targets, a.limits = targets, limits
		src := terms[i]
		s.run(src, targets, limits)
		for j := 0; j < k; j++ {
			if d := s.dist[terms[j]]; !inTree[j] && d < bestCost[j] {
				bestCost[j] = d
				bestFrom[j] = i
				p := path[j][:0]
				for v := terms[j]; v != src; v = int(s.parent[v]) {
					p = append(p, normEdge(v, int(s.parent[v])))
				}
				path[j] = p
			}
		}
	}
	inTree[0] = true
	for i := 1; i < k; i++ {
		bestCost[i] = math.Inf(1)
	}
	row(0)
	for i := 1; i < k; i++ {
		if math.IsInf(bestCost[i], 1) {
			return nil, fmt.Errorf("%w: %d from %d", ErrUnreachableTerminal, terms[i], terms[0])
		}
	}
	// Step 4 rides along: each metric-closure edge (bestFrom[pick], pick)
	// the Prim adds is expanded into its shortest path as it is added, and
	// the path edges are united in that order.
	union := a.union[:0]
	for added := 1; added < k; added++ {
		pick := -1
		for i := 0; i < k; i++ {
			if !inTree[i] && (pick == -1 || bestCost[i] < bestCost[pick]) {
				pick = i
			}
		}
		inTree[pick] = true
		union = append(union, path[pick]...)
		if added < k-1 {
			row(pick)
		}
	}
	a.union = union

	return a.unionTree(g, union, terms[0], isTerm), nil
}

// resize returns buf resliced to n elements, reallocated when too short.
// The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// unionTree runs KMB steps 5 and 6 on union, an edge list (repeats
// allowed) whose graph is connected and holds the terminal root: the
// minimum spanning tree of the union subgraph under g's lengths (Prim from
// root), pruned of non-terminal leaves. It returns the kept edges
// normalized and sorted, in the arena's storage.
func (a *KMBArena) unionTree(g Graph, union [][2]int, root int, isTerm []bool) [][2]int {
	// Step 5: Prim over the union subgraph. arcs holds every union edge in
	// both directions, grouped by tail.
	arcs := a.arcs[:0]
	for _, e := range union {
		arcs = append(arcs, e, [2]int{e[1], e[0]})
	}
	a.arcs = arcs
	slices.SortFunc(arcs, cmpEdge)
	if len(a.joined) != g.N {
		a.joined, a.hasTerm = make([]bool, g.N), make([]bool, g.N)
	}
	joined, hasTerm := a.joined, a.hasTerm
	pq := a.pq[:0]
	tree := a.tree[:0] // in joining order
	grow := func(v int) {
		joined[v] = true
		i, _ := slices.BinarySearchFunc(arcs, v, func(e [2]int, v int) int { return e[0] - v })
		for ; i < len(arcs) && arcs[i][0] == v; i++ {
			if b := arcs[i][1]; !joined[b] {
				pq.push(primCand{w: g.edgeLen(v, b), a: v, b: b})
			}
		}
	}
	grow(root)
	for len(pq) > 0 {
		if c := pq.pop(); !joined[c.b] {
			tree = append(tree, c)
			grow(c.b)
		}
	}
	a.pq, a.tree = pq, tree

	// Step 6: prune non-terminal leaves repeatedly. Rooted at root, an
	// edge survives exactly when the subtree below it holds a terminal;
	// reverse joining order visits every subtree before its parent edge.
	out := a.out[:0]
	if out == nil {
		out = make([][2]int, 0, len(tree))
	}
	for j := len(tree) - 1; j >= 0; j-- {
		if c := tree[j]; isTerm[c.b] || hasTerm[c.b] {
			hasTerm[c.a] = true
			out = append(out, normEdge(c.a, c.b))
		}
	}
	a.out = out
	slices.SortFunc(out, cmpEdge)
	joined[root] = false
	for _, c := range tree {
		joined[c.b], hasTerm[c.a] = false, false
	}
	return out
}

// rowSearch runs the Dijkstra rows of one KMBWeighted call. Rows share the
// distance, heap and parent arrays, reset through the touched list. The
// arrays outlive the call in their KMBArena: dist and pos are reset lazily
// through touched, isTerm is cleared by the caller, and a parent entry is
// read only for a vertex the current row reached.
type rowSearch struct {
	g       Graph
	dist    []float64 // current row; +Inf where untouched
	pos     []int32   // heap index, or unreached / settled
	heap    []int32   // vertices ordered by (dist, ID)
	touched []int32
	isTerm  []bool // the bound is recomputed when a terminal settles
	parent  []int32
}

const (
	unreached = -1
	settled   = -2
)

// begin prepares the search for one call on g, reallocating the per-vertex
// arrays when the vertex count changed.
func (s *rowSearch) begin(g Graph) {
	s.g = g
	if len(s.dist) == g.N {
		return
	}
	s.dist = make([]float64, g.N)
	s.pos = make([]int32, g.N)
	s.parent = make([]int32, g.N)
	s.isTerm = make([]bool, g.N)
	s.touched = s.touched[:0]
	for v := range s.dist {
		s.dist[v] = math.Inf(1)
		s.pos[v] = unreached
	}
}

// run computes the row of src: shortest distances from src, settling
// vertices in (distance, ID) order and keeping the lowest-ID parent among
// equal-length paths. It stops before settling a vertex no nearer than
// limits[j] for every unsettled targets[j]: no target can then come out
// nearer than its limit.
//
// The relaxation loop tests for settled neighbors only on a tie. Lengths are
// non-negative and IEEE addition is monotone, so for the vertex v being
// settled at distance d, nd = d + w ≥ d ≥ dist[n] for every settled n:
// nd < dist[n] never holds for one, and only the equal-length branch could
// touch a settled vertex's parent. That branch also skips unreached
// vertices, whose tie can only be +Inf = +Inf.
func (s *rowSearch) run(src int, targets []int, limits []float64) {
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
		s.pos[v] = unreached
	}
	s.touched = s.touched[:0]
	s.heap = s.heap[:0]
	parent := s.parent
	s.dist[src] = 0
	parent[src] = -1
	s.reach(int32(src))
	bound := s.bound(targets, limits)
	for len(s.heap) > 0 && s.dist[s.heap[0]] < bound {
		v := s.pop()
		if s.isTerm[v] {
			bound = s.bound(targets, limits)
		}
		d := s.dist[v]
		w := s.g.W[v]
		for i, n := range s.g.Adj[v] {
			nd := d + w[i]
			switch dn := s.dist[n]; {
			case nd < dn:
				s.dist[n] = nd
				parent[n] = v
				if p := s.pos[n]; p == unreached {
					s.reach(int32(n))
				} else {
					s.up(int(p))
				}
			case nd == dn && s.pos[n] >= 0 && v < parent[n]:
				// Equal lengths keep the lowest-ID parent of a vertex
				// still on the heap.
				parent[n] = v
			}
		}
	}
}

// bound returns the largest limit among the unsettled targets, or -Inf when
// every target is settled.
func (s *rowSearch) bound(targets []int, limits []float64) float64 {
	b := math.Inf(-1)
	for j, t := range targets {
		if s.pos[t] != settled && limits[j] > b {
			b = limits[j]
		}
	}
	return b
}

// reach adds v, whose distance is set, to the row's heap.
func (s *rowSearch) reach(v int32) {
	s.touched = append(s.touched, v)
	s.pos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.up(len(s.heap) - 1)
}

// pop settles and returns the heap's first vertex.
func (s *rowSearch) pop() int32 {
	h := s.heap
	v := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.pos[h[0]] = 0
	s.heap = h[:n]
	s.down(0)
	s.pos[v] = settled
	return v
}

func (s *rowSearch) before(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if da, db := s.dist[a], s.dist[b]; da != db {
		return da < db
	}
	return a < b
}

func (s *rowSearch) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.pos[h[i]] = int32(i)
	s.pos[h[j]] = int32(j)
}

func (s *rowSearch) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !s.before(j, i) {
			break
		}
		s.swap(i, j)
		j = i
	}
}

func (s *rowSearch) down(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && s.before(r, l) {
			j = r
		}
		if !s.before(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
}

// primCand is a frontier edge of the subgraph Prim pass: a is inside the
// tree, b outside.
type primCand struct {
	w    float64
	a, b int
}

// candQueue is a binary min-heap of frontier edges in (w, a, b) order.
type candQueue []primCand

func (q candQueue) before(i, j int) bool {
	if q[i].w != q[j].w {
		return q[i].w < q[j].w
	}
	if q[i].a != q[j].a {
		return q[i].a < q[j].a
	}
	return q[i].b < q[j].b
}

func (q *candQueue) push(c primCand) {
	*q = append(*q, c)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.before(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *candQueue) pop() primCand {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	c := h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.before(r, l) {
			j = r
		}
		if !h.before(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return c
}

func normEdge(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// cmpEdge orders edges by first then second endpoint.
func cmpEdge(x, y [2]int) int {
	if x[0] != y[0] {
		return x[0] - y[0]
	}
	return x[1] - y[1]
}
