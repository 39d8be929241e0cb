package steiner

import "gmp/internal/geom"

// This file keeps the eager rrSTR builder as the equivalence oracle of the
// lazy Builder.Build, and as the base of its benchmark ratio: referenceBuild
// must produce the same vertices, edges and edge Seqs on every input. It
// computes every pair's exact reduction ratio and Steiner point up front and
// queues 48-byte items; its types carry a ref prefix so that both builders
// live in one package.

// refBuilder is the eager builder's arena.
type refBuilder struct {
	tree      Tree
	q         refPairQueue
	active    []bool
	deadPairs map[[2]int]bool
}

// referenceBuild runs the eager rrSTR construction on a fresh arena.
func referenceBuild(source geom.Point, dests []Dest, opts Options) *Tree {
	return new(refBuilder).build(source, dests, opts)
}

// build is the eager rrSTR construction: every pair's exact reduction ratio
// and Steiner point are computed up front. The returned tree is owned by the
// builder and valid until the next call on it.
func (b *refBuilder) build(source geom.Point, dests []Dest, opts Options) *Tree {
	tree := &b.tree
	tree.Reset(source)
	n := len(dests)
	if n == 0 {
		return tree
	}

	b.active = growBools(b.active, n+1)
	for _, d := range dests {
		id := tree.AddTerminal(d.Pos, d.Label)
		b.active[id] = true
	}

	// Step 2 of Figure 3: reduction ratios and Steiner points for all pairs.
	q := b.q[:0]
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			rr, t := ReductionRatioPoint(source, tree.Vertex(i).Pos, tree.Vertex(j).Pos)
			q = append(q, refPairItem{u: i, v: j, rr: rr, t: t})
		}
	}
	q.init()

	if b.deadPairs == nil {
		b.deadPairs = make(map[[2]int]bool)
	} else {
		clear(b.deadPairs)
	}

	for len(q) > 0 {
		it := q.pop()
		if !b.active[it.u] || !b.active[it.v] || b.deadPairs[[2]int{it.u, it.v}] {
			continue // lazily discarded stale entry
		}
		u, v, t := it.u, it.v, it.t
		upos, vpos := tree.Vertex(u).Pos, tree.Vertex(v).Pos

		switch {
		case t.Eq(source):
			// Steiner point collocated with the source: direct edges.
			tree.AddEdge(0, u)
			tree.AddEdge(0, v)
			b.active[u] = false
			b.active[v] = false

		case t.Eq(upos):
			// u acts as the Steiner point; u stays active so it can keep
			// pairing with other destinations.
			tree.AddEdge(u, v)
			b.active[v] = false

		case t.Eq(vpos):
			tree.AddEdge(u, v)
			b.active[u] = false

		default:
			if opts.RadioAware && b.applyRadioCases(it, opts) {
				continue
			}
			// Create a new virtual destination w at the Steiner point.
			w := tree.AddVirtual(t)
			b.active = append(b.active, false)
			tree.AddEdge(w, u)
			tree.AddEdge(w, v)
			b.active[u] = false
			b.active[v] = false
			b.active[w] = true
			// Pair w with every other active vertex, in ascending ID order
			// for determinism (IDs are dense, so the scan is already sorted).
			for id := 1; id < tree.NumVertices(); id++ {
				if id == w || !b.active[id] {
					continue
				}
				rr, st := ReductionRatioPoint(source, t, tree.Vertex(id).Pos)
				a, c := w, id
				if a > c {
					a, c = c, a
				}
				q.push(refPairItem{u: a, v: c, rr: rr, t: st})
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

// applyRadioCases implements the three §3.3 radio-range-aware special cases.
// It reports whether the pair was fully handled (true) or whether the caller
// should proceed to create a virtual destination (false).
func (b *refBuilder) applyRadioCases(it refPairItem, opts Options) bool {
	tree := &b.tree
	source := tree.Vertex(0).Pos
	u, v, t := it.u, it.v, it.t
	upos, vpos := tree.Vertex(u).Pos, tree.Vertex(v).Pos
	rr := opts.RadioRange
	du, dv := source.Dist(upos), source.Dist(vpos)
	key := [2]int{u, v}

	// Cost comparison of §3.3: routing through the virtual destination costs
	// one hop (rr) plus the residual legs; direct delivery costs du + dv.
	viaVirtual := rr + t.Dist(upos) + t.Dist(vpos)
	notBeneficial := viaVirtual > du+dv

	switch {
	case du < rr && dv < rr:
		// Case 1: both are one hop away; a virtual destination could only
		// add a hop to each. Deactivate the pair (not the nodes).
		b.deadPairs[key] = true
		return true

	case du < rr:
		// Case 3 with u in range.
		if notBeneficial {
			b.deadPairs[key] = true
			return true
		}
		// u itself serves as the Steiner point.
		tree.AddEdge(u, v)
		b.active[v] = false
		return true

	case dv < rr:
		// Case 3 with v in range, symmetric.
		if notBeneficial {
			b.deadPairs[key] = true
			return true
		}
		tree.AddEdge(u, v)
		b.active[u] = false
		return true

	case source.Dist(t) < rr && notBeneficial:
		// Case 2: the Steiner point is within one hop but not worth the
		// detour; the source serves as the Steiner point.
		tree.AddEdge(0, u)
		tree.AddEdge(0, v)
		b.active[u] = false
		b.active[v] = false
		return true
	}
	return false
}

// refPairItem is a candidate destination pair in the reduction-ratio queue.
type refPairItem struct {
	u, v int // vertex IDs, u < v
	rr   float64
	t    geom.Point // Steiner point of {source, u, v}
}

// refPairQueue is a max-heap of refPairItems keyed by reduction ratio with a
// deterministic vertex-ID tie-break. It is hand-rolled rather than built on
// container/heap: the standard heap boxes every element into an interface{},
// one allocation per push, which the per-decision rrSTR rebuild cannot
// afford. The ordering is a strict total order (no two items compare equal),
// so every pop returns the unique maximum and the construction sequence is
// identical to the container/heap version.
type refPairQueue []refPairItem

// before reports whether item i has priority over item j.
func (q refPairQueue) before(i, j int) bool {
	if q[i].rr != q[j].rr {
		return q[i].rr > q[j].rr
	}
	if q[i].u != q[j].u {
		return q[i].u < q[j].u
	}
	return q[i].v < q[j].v
}

// init heapifies the queue in place.
func (q refPairQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *refPairQueue) push(it refPairItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *refPairQueue) pop() refPairItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	it := h[n]
	*q = h[:n]
	(*q).down(0)
	return it
}

func (q refPairQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.before(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q refPairQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.before(r, l) {
			j = r
		}
		if !q.before(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
