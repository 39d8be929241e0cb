package steiner

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"gmp/internal/geom"
)

// Graph is an undirected graph over vertex indices 0..N-1, given as
// compressed sparse rows. It models the sensor connectivity graph
// (unit-disk links).
type Graph struct {
	N int
	// Off and Nbr hold the adjacency: v's neighbors are
	// Nbr[Off[v]:Off[v+1]], and Off has N+1 entries.
	Off []int32
	Nbr []int32
	// W holds edge lengths parallel to Nbr: W[i] is the length of the edge
	// between v and Nbr[i] for i in v's row, the same from either end.
	W []float64
	// Pos, when set, holds N vertex positions whose Euclidean distances
	// are the edge lengths: W[i] is Pos[v].Dist(Pos[Nbr[i]]). KMB then cuts
	// its Dijkstra rows at the straight line (see rowSearch). Only
	// network.Network.Graph sets it; nil means no such positions.
	Pos []geom.Point
}

// Neighbors returns v's row of Nbr, capped at its length.
func (g Graph) Neighbors(v int) []int32 {
	lo, hi := g.Off[v], g.Off[v+1]
	return g.Nbr[lo:hi:hi]
}

// edgeLen returns the length of the edge from a to its neighbor b.
func (g Graph) edgeLen(a, b int) float64 {
	return g.W[int(g.Off[a])+slices.Index(g.Neighbors(a), int32(b))]
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
// When g carries positions, rows also stop at the straight line: they skip
// targets too far from the source to get closer, and do not expand
// vertices too far from every target (see rowSearch). The cuts are exact.
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
		src := terms[i]
		targets, limits := a.targets[:0], a.limits[:0]
		for j := 0; j < k; j++ {
			if !inTree[j] && !s.outOfReach(src, terms[j], bestCost[j]) {
				targets = append(targets, terms[j])
				limits = append(limits, bestCost[j])
			}
		}
		a.targets, a.limits = targets, limits
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
//
// # Straight-line cuts
//
// When the graph carries positions (Graph.Pos), no path is shorter than the
// straight line between its ends, and rows use that bound (the A* argument)
// for two cuts:
//
//   - Target filter: a row leaves target t out when t lies at least
//     (1+ε)·limit_t from the row's source (outOfReach).
//   - Vertex prune: a popped vertex v at distance d is settled but not
//     expanded when every unsettled target t lies at least
//     (1+ε)·limit_t − d from v (beyond). The test compares squared
//     distances, so the hot loop takes no square root.
//
// Both test d + |v−t| ≥ (1+ε)·limit_t, up to their own rounding; the
// filter is the prune's test at the source, where d = 0.
//
// Why the cuts are exact. A row distance is the left-fold float sum of the
// edge lengths along a path, and Dijkstra computes the least such sum,
// because rounded addition is monotone. With u = 2⁻⁵³, a length
// W = Hypot(dx, dy) is at least (1−6u) times the exact distance, and a
// fold of m ≤ N−1 further lengths onto d is at least (1−u)^m times the
// exact sum. So any path that continues from v to t, in a row that reached
// v at d, sums to at least (1−(N+5)u)·(d + |v−t|), by the triangle
// inequality. A passing test gives d + |v−t| ≥ (1−6u)·(1+ε)·limit_t, and
// with ε = (N+4)·2⁻⁵⁰ = 8(N+4)u every such path sums to at least limit_t.
// Now call a vertex live when some path from the source through it, along
// its row parents and then on to an unsettled target t, sums to less than
// limit_t. A live vertex fails its test for that t, so it is expanded, and
// by induction over the settle order every live vertex is reached along its
// true parent chain at its true distance. Every vertex on a shortest or
// equal-length path to a target that can still beat its limit is live, and
// so is every vertex that offers it an equal-length tie. Distances below a
// limit, their lowest-ID parents, and so the trees, are those of the uncut
// rows. A vertex that is not live may settle late, at a distance too long,
// or not at all; no target reached through it can beat its limit, and the
// bound keeps its limit until it settles, so the row does not stop early.
//
// Range. The slack ε grows with N; past the N where it would exceed 1e-9,
// the cuts are off (cutSlack). They are off too when a coordinate is
// neither 0 nor of magnitude within 2^±300; a limit below 2^-300 is raised
// to it and one above 2^300 prunes nothing. No square in the tests then
// overflows or loses precision to underflow.
type rowSearch struct {
	g       Graph
	dist    []float64 // current row; +Inf where untouched
	pos     []int32   // heap index, or unreached / settled
	heap    []int32   // vertices ordered by (dist, ID)
	touched []int32
	isTerm  []bool // the bound is recomputed when a terminal settles
	parent  []int32
	// slack is ε of the straight-line cuts on g, 0 when they are off.
	slack float64
	// open holds the row's unsettled targets with their cut radii,
	// rebuilt with the bound.
	open []cutTarget
	// expanded counts the vertices the rows expanded since begin.
	expanded int
}

// cutTarget is an unsettled target of a row under the straight-line cuts:
// its position and its cut radius (1+ε)·limit.
type cutTarget struct {
	p   geom.Point
	cut float64
}

const (
	unreached = -1
	settled   = -2
)

// begin prepares the search for one call on g, reallocating the per-vertex
// arrays when the vertex count changed.
func (s *rowSearch) begin(g Graph) {
	s.g = g
	s.slack = cutSlack(g)
	s.expanded = 0
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

// cutSlack returns the relative slack ε = (N+4)·2⁻⁵⁰ of the straight-line
// cuts on g, or 0 when they are off: g has no positions, ε would exceed
// 1e-9, or a coordinate lies outside the range rowSearch's doc names.
func cutSlack(g Graph) float64 {
	eps := float64(g.N+4) * 0x1p-50
	if len(g.Pos) != g.N || eps > 1e-9 {
		return 0
	}
	for _, p := range g.Pos {
		if !cutCoord(p.X) || !cutCoord(p.Y) {
			return 0
		}
	}
	return eps
}

// cutCoord reports whether x is 0 or of magnitude within 2^±300.
func cutCoord(x float64) bool {
	a := math.Abs(x)
	return a == 0 || (a >= 0x1p-300 && a <= 0x1p300)
}

// cutRadius returns the cut radius (1+ε)·limit of a target, the limit
// raised to at least 2^-300, or +Inf when the limit exceeds 2^300.
func (s *rowSearch) cutRadius(limit float64) float64 {
	if limit > 0x1p300 {
		return math.Inf(1)
	}
	return (1 + s.slack) * max(limit, 0x1p-300)
}

// outOfReach reports whether the target filter leaves target t out of
// src's row: under the cuts, no path from src to t sums to less than limit.
func (s *rowSearch) outOfReach(src, t int, limit float64) bool {
	if s.slack == 0 {
		return false
	}
	r := s.cutRadius(limit)
	return s.g.Pos[src].Dist2(s.g.Pos[t]) >= r*r
}

// run computes the row of src: shortest distances from src, settling
// vertices in (distance, ID) order and keeping the lowest-ID parent among
// equal-length paths. It stops before settling a vertex no nearer than
// limits[j] for every unsettled targets[j]: no target can then come out
// nearer than its limit. Under the straight-line cuts it expands only the
// vertices that are not beyond every unsettled target.
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
		if s.slack > 0 && s.beyond(v, d) {
			continue
		}
		s.expanded++
		lo, hi := s.g.Off[v], s.g.Off[v+1]
		w := s.g.W[lo:hi]
		for i, n := range s.g.Nbr[lo:hi] {
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
// every target is settled. Under the straight-line cuts it also rebuilds
// the open targets.
func (s *rowSearch) bound(targets []int, limits []float64) float64 {
	b := math.Inf(-1)
	s.open = s.open[:0]
	for j, t := range targets {
		if s.pos[t] == settled {
			continue
		}
		b = max(b, limits[j])
		if s.slack > 0 {
			s.open = append(s.open, cutTarget{s.g.Pos[t], s.cutRadius(limits[j])})
		}
	}
	return b
}

// beyond reports whether vertex v, popped at distance d, lies at least its
// cut radius minus d from every open target in a straight line, so that no
// path through v brings a target under its limit.
func (s *rowSearch) beyond(v int32, d float64) bool {
	p := s.g.Pos[v]
	for _, t := range s.open {
		if r := t.cut - d; r > 0 && p.Dist2(t.p) < r*r {
			return false
		}
	}
	return true
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
