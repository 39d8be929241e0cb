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
	// edge between v and Adj[v][i], the same from either end. nil means
	// unit lengths.
	W [][]float64
}

// edgeLen returns the length of the edge from a to its neighbor b.
func (g Graph) edgeLen(a, b int) float64 {
	if g.W == nil {
		return 1
	}
	return g.W[a][slices.Index(g.Adj[a], b)]
}

// ErrUnreachableTerminal is returned by KMB when some terminal cannot be
// reached from the others in the graph.
var ErrUnreachableTerminal = errors.New("steiner: terminal unreachable")

// KMB computes a graph Steiner tree over the given terminals using the
// Kou–Markowsky–Berman heuristic (paper ref [16]) under unit (hop-count)
// edge weights, whatever g.W holds. It returns the tree's edge set.
func KMB(g Graph, terminals []int) ([][2]int, error) {
	g.W = nil
	return KMBWeighted(g, terminals)
}

// KMBWeighted is KMB under the edge lengths g.W. The paper's SMT baseline
// uses Euclidean distances as lengths: the source knows all node positions
// and computes a close-to-optimal Steiner tree in the geometric sense, which
// is exactly what makes its *hop count* beatable by GMP (short graph edges
// are cheap in meters but each one still costs a transmission).
//
// The classical 2(1-1/ℓ)-approximation guarantee applies with respect to the
// supplied lengths. The returned edges are normalized (a < b) and sorted.
//
// Lengths must be non-negative. Shortest paths are computed lazily: a
// terminal's Dijkstra row runs only when the metric-closure Prim adds that
// terminal to its tree, and stops once no terminal outside the tree can get
// closer to the tree through it — each is settled, or at least as far from
// the row's source as from the tree already. Settled distances and parents
// are final, a settled vertex's parent chain is settled too, and Prim takes
// a row's distance only when it is strictly shorter, so the tree is the one
// full rows from every terminal would give.
func KMBWeighted(g Graph, terminals []int) ([][2]int, error) {
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

	// Deduplicate terminals while preserving order.
	isTerm := make([]bool, g.N)
	terms := make([]int, 0, len(terminals))
	for _, t := range terminals {
		if !isTerm[t] {
			isTerm[t] = true
			terms = append(terms, t)
		}
	}
	k := len(terms)
	if k == 1 {
		return [][2]int{}, nil
	}

	// Steps 1-3: Prim MST over the terminal metric closure. Each terminal's
	// row of the closure is computed when the terminal joins the tree, and
	// the last to join needs none.
	inTree := make([]bool, k)
	bestCost := make([]float64, k)
	bestFrom := make([]int, k) // index into terms
	rowOf := make([]int, k)    // terms[i]'s row in s
	s := newRowSearch(g, k-1, isTerm)
	targets := make([]int, 0, k-1)
	limits := make([]float64, 0, k-1)
	row := func(i, r int) {
		targets, limits = targets[:0], limits[:0]
		for j := 0; j < k; j++ {
			if !inTree[j] {
				targets = append(targets, terms[j])
				limits = append(limits, bestCost[j])
			}
		}
		rowOf[i] = r
		s.run(terms[i], r, targets, limits)
		for j := 0; j < k; j++ {
			if d := s.dist[terms[j]]; !inTree[j] && d < bestCost[j] {
				bestCost[j] = d
				bestFrom[j] = i
			}
		}
	}
	inTree[0] = true
	for i := 1; i < k; i++ {
		bestCost[i] = math.Inf(1)
	}
	row(0, 0)
	for i := 1; i < k; i++ {
		if math.IsInf(bestCost[i], 1) {
			return nil, fmt.Errorf("%w: %d from %d", ErrUnreachableTerminal, terms[i], terms[0])
		}
	}
	type metricEdge struct{ a, b int } // indices into terms
	mst := make([]metricEdge, 0, k-1)
	for added := 1; added < k; added++ {
		pick := -1
		for i := 0; i < k; i++ {
			if !inTree[i] && (pick == -1 || bestCost[i] < bestCost[pick]) {
				pick = i
			}
		}
		inTree[pick] = true
		mst = append(mst, metricEdge{bestFrom[pick], pick})
		if added < k-1 {
			row(pick, added)
		}
	}

	// Step 4: expand metric edges into actual shortest paths; union edges.
	var union [][2]int
	for _, me := range mst {
		from, to := terms[me.a], terms[me.b]
		p := s.parents(rowOf[me.a])
		for v := to; v != from; v = int(p[v]) {
			union = append(union, normEdge(v, int(p[v])))
		}
	}

	return unionTree(g, union, terms[0], isTerm), nil
}

// unionTree runs KMB steps 5 and 6 on union, an edge list (repeats
// allowed) whose graph is connected and holds the terminal root: the
// minimum spanning tree of the union subgraph under g's lengths (Prim from
// root), pruned of non-terminal leaves. It returns the kept edges
// normalized and sorted.
func unionTree(g Graph, union [][2]int, root int, isTerm []bool) [][2]int {
	// Step 5: Prim over the union subgraph. arcs holds every union edge in
	// both directions, grouped by tail.
	arcs := make([][2]int, 0, 2*len(union))
	for _, e := range union {
		arcs = append(arcs, e, [2]int{e[1], e[0]})
	}
	slices.SortFunc(arcs, cmpEdge)
	joined := make([]bool, g.N)
	var pq candQueue
	var tree []primCand // in joining order
	grow := func(a int) {
		joined[a] = true
		i, _ := slices.BinarySearchFunc(arcs, a, func(e [2]int, v int) int { return e[0] - v })
		for ; i < len(arcs) && arcs[i][0] == a; i++ {
			if b := arcs[i][1]; !joined[b] {
				pq.push(primCand{w: g.edgeLen(a, b), a: a, b: b})
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

	// Step 6: prune non-terminal leaves repeatedly. Rooted at root, an
	// edge survives exactly when the subtree below it holds a terminal;
	// reverse joining order visits every subtree before its parent edge.
	hasTerm := slices.Clone(isTerm)
	out := make([][2]int, 0, len(tree))
	for j := len(tree) - 1; j >= 0; j-- {
		if c := tree[j]; hasTerm[c.b] {
			hasTerm[c.a] = true
			out = append(out, normEdge(c.a, c.b))
		}
	}
	slices.SortFunc(out, cmpEdge)
	return out
}

// rowSearch runs the Dijkstra rows of one KMBWeighted call. Rows share the
// distance and heap arrays, reset through the touched list, but each keeps
// its own parent array for the path expansion of step 4.
type rowSearch struct {
	g       Graph
	dist    []float64 // current row; +Inf where untouched
	pos     []int32   // heap index, or unreached / settled
	heap    []int32   // vertices ordered by (dist, ID)
	touched []int32
	isTerm  []bool  // the bound is recomputed when a terminal settles
	parent  []int32 // row r's parents at [r·N, (r+1)·N)
}

const (
	unreached = -1
	settled   = -2
)

func newRowSearch(g Graph, rows int, isTerm []bool) *rowSearch {
	s := &rowSearch{
		g:      g,
		dist:   make([]float64, g.N),
		pos:    make([]int32, g.N),
		isTerm: isTerm,
		parent: make([]int32, rows*g.N),
	}
	for v := range s.dist {
		s.dist[v] = math.Inf(1)
		s.pos[v] = unreached
	}
	return s
}

// parents returns row r's parent array.
func (s *rowSearch) parents(r int) []int32 { return s.parent[r*s.g.N : (r+1)*s.g.N] }

// run computes row r: shortest distances from src, settling vertices in
// (distance, ID) order and keeping the lowest-ID parent among equal-length
// paths. It stops before settling a vertex no nearer than limits[j] for
// every unsettled targets[j]: no target can then come out nearer than its
// limit.
func (s *rowSearch) run(src, r int, targets []int, limits []float64) {
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
		s.pos[v] = unreached
	}
	s.touched = s.touched[:0]
	s.heap = s.heap[:0]
	parent := s.parents(r)
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
		var w []float64
		if s.g.W != nil {
			w = s.g.W[v]
		}
		for i, n := range s.g.Adj[v] {
			if s.pos[n] == settled {
				continue
			}
			nd := d + 1
			if w != nil {
				nd = d + w[i]
			}
			switch {
			case nd < s.dist[n]:
				s.dist[n] = nd
				parent[n] = v
				if s.pos[n] == unreached {
					s.reach(int32(n))
				} else {
					s.up(int(s.pos[n]))
				}
			case nd == s.dist[n] && v < parent[n]:
				// Equal lengths keep the lowest-ID parent. An unreached n
				// (nd = dist = +Inf) still holds the row's zeroed parent,
				// which no v beats.
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
