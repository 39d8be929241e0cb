package steiner

import (
	"math"

	"gmp/internal/geom"
)

// Builder constructs multicast trees into reusable storage. GMP rebuilds an
// rrSTR tree at every transmitting node (paper §3–4), so the construction is
// the hot inner loop of every forwarding decision; a Builder keeps the tree,
// the pair queue, the active-vertex set, the source distances and the MST
// working arrays across calls, making steady-state builds allocation-free.
//
// The zero value is ready to use. Each build method resets and returns the
// builder's own tree: the result is valid only until the next call on the
// same Builder, and callers that need to retain a tree must copy it. Builders
// are not safe for concurrent use: one lives in each decision arena
// (view.Scratch), owned by one kernel lane or service decider, which runs
// one decision at a time; never share one across goroutines.
type Builder struct {
	tree    Tree
	q       pairQueue
	active  []bool
	nActive int       // number of true entries in active
	ds      []float64 // vertex ID -> distance from the source

	// pairs and evals count, for the last Build, the pairs pushed onto the
	// queue and the exact reduction ratios computed; tests and benchmarks
	// read them.
	pairs, evals int

	// Prim working arrays for the MST builders.
	inTree   []bool
	bestCost []float64
	bestFrom []int
}

// growBools returns s resized to n elements, all false, reusing capacity.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// growFloats returns s resized to n elements, reusing capacity. Contents are
// unspecified; callers must initialize.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts returns s resized to n elements, reusing capacity. Contents are
// unspecified; callers must initialize.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Build is the arena-backed rrSTR construction; see the package-level Build
// for the algorithm contract. The returned tree is owned by the builder and
// valid until the next call on it.
//
// Pairs enter the queue keyed by reductionRatioBound, which costs one
// distance; the exact ratio is computed only when a pair's bound reaches the
// top of the queue while both its ends are active. Every key bounds its
// pair's exact ratio from above and the order is (key desc, u asc, v asc), so
// an exact item on top is the maximum the eager construction of Figure 3
// would pop next: the tree is the same, edge for edge and Seq for Seq.
func (b *Builder) Build(source geom.Point, dests []Dest, opts Options) *Tree {
	tree := &b.tree
	tree.Reset(source)
	b.pairs, b.evals = 0, 0
	n := len(dests)
	if n == 0 {
		return tree
	}

	b.active = growBools(b.active, n+1)
	b.ds = growFloats(b.ds, n+1)
	for _, d := range dests {
		id := tree.AddTerminal(d.Pos, d.Label)
		b.active[id] = true
		b.ds[id] = source.Dist(d.Pos)
	}
	b.nActive = n

	// Step 2 of Figure 3: every destination pair, keyed by its bound. The
	// queue never needs more room than this (see dropStale), so its storage
	// is exactly 16 B per destination pair.
	if pairs := n * (n - 1) / 2; cap(b.q) < pairs {
		b.q = make(pairQueue, 0, pairs)
	}
	q := b.q[:0]
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			q = append(q, b.boundItem(i, j))
		}
	}
	q.init()

	for len(q) > 0 {
		if a := b.nActive; len(q) > a*(a-1) {
			// Over half the queue is stale, since at most a(a-1)/2 pairs
			// can be live. Dropping them all costs less than popping them
			// one by one, and each item is dropped at most once.
			q = b.dropStale(q)
			continue
		}
		it := q[0]
		u, v := it.pair()
		if !b.active[u] || !b.active[v] {
			q.pop() // lazily discarded stale entry
			continue
		}
		rr, t := b.ratio(u, v)
		if !it.exact() {
			// Replace the bound by the exact ratio; the pair is processed
			// now only if it stays on top.
			q[0] = newPairItem(rr, u, v, true)
			q.down(0)
			if q[0].ids != it.ids|1 {
				continue
			}
		}
		q.pop()
		upos, vpos := tree.Vertex(u).Pos, tree.Vertex(v).Pos

		switch {
		case t.Eq(source):
			// Steiner point collocated with the source: direct edges.
			tree.AddEdge(0, u)
			tree.AddEdge(0, v)
			b.retire(u)
			b.retire(v)

		case t.Eq(upos):
			// u acts as the Steiner point; u stays active so it can keep
			// pairing with other destinations.
			tree.AddEdge(u, v)
			b.retire(v)

		case t.Eq(vpos):
			tree.AddEdge(u, v)
			b.retire(u)

		default:
			if opts.RadioAware && b.applyRadioCases(u, v, t, opts) {
				continue
			}
			// Create a new virtual destination w at the Steiner point.
			w := tree.AddVirtual(t)
			b.active = append(b.active, false)
			b.ds = append(b.ds, source.Dist(t))
			tree.AddEdge(w, u)
			tree.AddEdge(w, v)
			b.retire(u)
			b.retire(v)
			b.active[w] = true
			b.nActive++
			// Pair w, the highest ID, with every other active vertex.
			for id := 1; id < w; id++ {
				if b.active[id] {
					if len(q) == cap(q) {
						q = b.dropStale(q)
					}
					q.push(b.boundItem(id, w))
				}
			}
		}
	}
	b.q = q[:0]

	// Queue exhausted: every destination still active is covered by a direct
	// edge from the source (the "(c, c) pair" of the paper's walk-through).
	// Iterate in ID order for determinism.
	for id := 1; id < tree.NumVertices(); id++ {
		if b.active[id] {
			tree.AddEdge(0, id)
			b.active[id] = false
		}
	}
	return tree
}

// dropStale removes the items with an inactive end from q and re-heapifies
// it. Those items would be discarded on pop anyway, so the pop sequence is
// unchanged. Every remaining item pairs two active vertices, and a build
// never has more active vertices than destinations, so after dropStale the
// queue holds fewer than K(K-1)/2 items whenever a push is due.
func (b *Builder) dropStale(q pairQueue) pairQueue {
	live := q[:0]
	for _, it := range q {
		if u, v := it.pair(); b.active[u] && b.active[v] {
			live = append(live, it)
		}
	}
	live.init()
	return live
}

// retire deactivates vertex id.
func (b *Builder) retire(id int) {
	b.active[id] = false
	b.nActive--
}

// boundItem returns the queue item of pair u < v keyed by its reduction-ratio
// upper bound.
func (b *Builder) boundItem(u, v int) pairItem {
	b.pairs++
	duv := b.tree.Vertex(u).Pos.Dist(b.tree.Vertex(v).Pos)
	return newPairItem(reductionRatioBound(b.ds[u], b.ds[v], duv), u, v, false)
}

// ratio returns the exact reduction ratio and Steiner point of pair u < v.
// The arguments keep the order the eager construction used: (u, v) for two
// terminals, and (v, u) when v is a virtual vertex, since a virtual vertex is
// paired on creation as the newest, highest ID. ReductionRatioPoint is not
// bit-symmetric in its last two arguments, so this order is what keeps the
// tree identical bit for bit.
func (b *Builder) ratio(u, v int) (float64, geom.Point) {
	b.evals++
	tree := &b.tree
	upos, vv := tree.Vertex(u).Pos, tree.Vertex(v)
	if vv.Kind == Virtual {
		return ReductionRatioPoint(tree.Vertex(0).Pos, vv.Pos, upos)
	}
	return ReductionRatioPoint(tree.Vertex(0).Pos, upos, vv.Pos)
}

// applyRadioCases implements the three §3.3 radio-range-aware special cases
// for pair u, v with Steiner point t. It reports whether the pair was fully
// handled (true) or whether the caller should proceed to create a virtual
// destination (false). A pair the cases drop without edges is simply not
// pushed again: the queue holds each pair once, so its pop removed it.
func (b *Builder) applyRadioCases(u, v int, t geom.Point, opts Options) bool {
	tree := &b.tree
	source := tree.Vertex(0).Pos
	upos, vpos := tree.Vertex(u).Pos, tree.Vertex(v).Pos
	rr := opts.RadioRange
	du, dv := b.ds[u], b.ds[v]

	// Cost comparison of §3.3: routing through the virtual destination costs
	// one hop (rr) plus the residual legs; direct delivery costs du + dv.
	viaVirtual := rr + t.Dist(upos) + t.Dist(vpos)
	notBeneficial := viaVirtual > du+dv

	switch {
	case du < rr && dv < rr:
		// Case 1: both are one hop away; a virtual destination could only
		// add a hop to each. Drop the pair (not the nodes).
		return true

	case du < rr:
		// Case 3 with u in range.
		if notBeneficial {
			return true // Figure 3: drop the pair, not the nodes
		}
		// u itself serves as the Steiner point.
		tree.AddEdge(u, v)
		b.retire(v)
		return true

	case dv < rr:
		// Case 3 with v in range, symmetric.
		if notBeneficial {
			return true
		}
		tree.AddEdge(u, v)
		b.retire(u)
		return true

	case source.Dist(t) < rr && notBeneficial:
		// Case 2: the Steiner point is within one hop but not worth the
		// detour; the source serves as the Steiner point.
		tree.AddEdge(0, u)
		tree.AddEdge(0, v)
		b.retire(u)
		b.retire(v)
		return true
	}
	return false
}

// EuclideanMST is the arena-backed Prim construction; see the package-level
// EuclideanMST for the algorithm contract. The returned tree is owned by the
// builder and valid until the next call on it.
func (b *Builder) EuclideanMST(source geom.Point, dests []Dest) *Tree {
	tree := &b.tree
	tree.Reset(source)
	n := len(dests)
	if n == 0 {
		return tree
	}
	for _, d := range dests {
		tree.AddTerminal(d.Pos, d.Label)
	}

	const unvisited = -1
	b.inTree = growBools(b.inTree, n+1)
	b.bestCost = growFloats(b.bestCost, n+1)
	b.bestFrom = growInts(b.bestFrom, n+1)
	inTree, bestCost, bestFrom := b.inTree, b.bestCost, b.bestFrom
	for i := range bestCost {
		bestCost[i] = math.Inf(1)
		bestFrom[i] = unvisited
	}
	inTree[0] = true
	for i := 1; i <= n; i++ {
		bestCost[i] = source.Dist(tree.Vertex(i).Pos)
		bestFrom[i] = 0
	}

	for added := 0; added < n; added++ {
		pick := unvisited
		for i := 1; i <= n; i++ {
			if !inTree[i] && (pick == unvisited || bestCost[i] < bestCost[pick]) {
				pick = i
			}
		}
		inTree[pick] = true
		tree.AddEdge(bestFrom[pick], pick)
		pickPos := tree.Vertex(pick).Pos
		for i := 1; i <= n; i++ {
			if inTree[i] {
				continue
			}
			if d := pickPos.Dist(tree.Vertex(i).Pos); d < bestCost[i] {
				bestCost[i] = d
				bestFrom[i] = pick
			}
		}
	}
	return tree
}

// SteinerizedMST is the arena-backed corner-Steinerization; see the package-
// level SteinerizedMST for the algorithm contract. The returned tree is owned
// by the builder and valid until the next call on it.
func (b *Builder) SteinerizedMST(source geom.Point, dests []Dest) *Tree {
	tree := b.EuclideanMST(source, dests)
	// Each insertion adds one virtual vertex and strictly reduces total
	// length; the classical bound on Steiner points (n-2 for n terminals)
	// bounds the loop, with slack for collinear-noise cases.
	maxInsertions := 2 * (len(dests) + 1)
	for i := 0; i < maxInsertions; i++ {
		if !steinerizeOnce(tree) {
			break
		}
	}
	return tree
}
