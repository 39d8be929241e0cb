package steiner

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// This file keeps the eager KMB as the equivalence oracle of the lazy
// KMBWeighted, and as the base of its benchmark ratio: both must return the
// same edge slice and the same error on every input. The oracle runs one
// full container/heap Dijkstra per terminal, reads every edge length through
// a weight function, and keeps its working sets in maps; its types carry a
// ref prefix so that both implementations live in one package.

// referenceKMBWeighted is KMBWeighted as it stood before the lazy rows:
// KMB under arbitrary non-negative edge weights, a nil weight function
// meaning unit weights. The classical 2(1-1/ℓ)-approximation guarantee
// applies with respect to the supplied weights.
func referenceKMBWeighted(g Graph, terminals []int, weight func(a, b int) float64) ([][2]int, error) {
	if weight == nil {
		weight = func(a, b int) float64 { return 1 }
	}
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
	seen := make(map[int]bool, len(terminals))
	terms := make([]int, 0, len(terminals))
	for _, t := range terminals {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}

	// Step 1: shortest paths from every terminal.
	dist := make(map[int][]float64, len(terms))
	parent := make(map[int][]int, len(terms))
	for _, t := range terms {
		d, p := refDijkstra(g, t, weight)
		dist[t] = d
		parent[t] = p
	}

	// Steps 2+3: Prim MST over the terminal metric closure.
	k := len(terms)
	inTree := make([]bool, k)
	bestCost := make([]float64, k)
	bestFrom := make([]int, k)
	for i := range bestCost {
		bestCost[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	inTree[0] = true
	for i := 1; i < k; i++ {
		d := dist[terms[0]][terms[i]]
		if math.IsInf(d, 1) {
			return nil, fmt.Errorf("%w: %d from %d", ErrUnreachableTerminal, terms[i], terms[0])
		}
		bestCost[i] = d
		bestFrom[i] = 0
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
		if bestFrom[pick] == -1 || math.IsInf(bestCost[pick], 1) {
			return nil, fmt.Errorf("%w: %d", ErrUnreachableTerminal, terms[pick])
		}
		inTree[pick] = true
		mst = append(mst, metricEdge{bestFrom[pick], pick})
		for i := 0; i < k; i++ {
			if inTree[i] {
				continue
			}
			if d := dist[terms[pick]][terms[i]]; d < bestCost[i] {
				bestCost[i] = d
				bestFrom[i] = pick
			}
		}
	}

	// Step 4: expand metric edges into actual shortest paths; union edges.
	edgeSet := make(map[[2]int]bool)
	for _, me := range mst {
		from, to := terms[me.a], terms[me.b]
		p := parent[from]
		for v := to; v != from; v = p[v] {
			edgeSet[normEdge(v, p[v])] = true
		}
	}

	return refUnionTree(edgeSet, terms[0], seen, weight), nil
}

// refUnionTree is steps 5 and 6 of referenceKMBWeighted: the minimum
// spanning tree of the union subgraph, pruned of non-terminal leaves.
func refUnionTree(edgeSet map[[2]int]bool, root int, seen map[int]bool, weight func(a, b int) float64) [][2]int {
	// Step 5: minimum spanning tree of the union subgraph under the same
	// weights (Prim from the first terminal).
	subAdj := make(map[int][]int)
	for e := range edgeSet {
		subAdj[e[0]] = append(subAdj[e[0]], e[1])
		subAdj[e[1]] = append(subAdj[e[1]], e[0])
	}
	for v := range subAdj {
		sort.Ints(subAdj[v]) // determinism
	}
	treeEdges := refSubgraphMST(subAdj, root, weight)

	// Step 6: prune non-terminal leaves repeatedly.
	degree := make(map[int]int)
	for e := range treeEdges {
		degree[e[0]]++
		degree[e[1]]++
	}
	for {
		removed := false
		for e := range treeEdges {
			for _, v := range []int{e[0], e[1]} {
				if degree[v] == 1 && !seen[v] {
					delete(treeEdges, e)
					degree[e[0]]--
					degree[e[1]]--
					removed = true
					break
				}
			}
			if removed {
				break
			}
		}
		if !removed {
			break
		}
	}

	out := make([][2]int, 0, len(treeEdges))
	for e := range treeEdges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// refSubgraphMST runs Prim over the subgraph adjacency starting at root and
// returns the chosen edge set.
func refSubgraphMST(adj map[int][]int, root int, weight func(a, b int) float64) map[[2]int]bool {
	edges := make(map[[2]int]bool)
	inTree := map[int]bool{root: true}
	pq := &refCandQueue{}
	push := func(v int) {
		for _, n := range adj[v] {
			if !inTree[n] {
				heap.Push(pq, refPrimCand{w: weight(v, n), a: v, b: n})
			}
		}
	}
	push(root)
	for pq.Len() > 0 {
		c := heap.Pop(pq).(refPrimCand)
		if inTree[c.b] {
			continue
		}
		inTree[c.b] = true
		edges[normEdge(c.a, c.b)] = true
		push(c.b)
	}
	return edges
}

// refPrimCand is a frontier edge of the subgraph Prim pass: a is inside the
// tree, b outside.
type refPrimCand struct {
	w    float64
	a, b int
}

type refCandQueue []refPrimCand

func (q refCandQueue) Len() int { return len(q) }
func (q refCandQueue) Less(i, j int) bool {
	if q[i].w != q[j].w {
		return q[i].w < q[j].w
	}
	if q[i].a != q[j].a {
		return q[i].a < q[j].a
	}
	return q[i].b < q[j].b
}
func (q refCandQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refCandQueue) Push(x interface{}) { *q = append(*q, x.(refPrimCand)) }
func (q *refCandQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refDijkstra returns shortest-path distances and parents from src under the
// weight function; unreachable vertices get +Inf distance and parent -1.
func refDijkstra(g Graph, src int, weight func(a, b int) float64) ([]float64, []int) {
	dist := make([]float64, g.N)
	parent := make([]int, g.N)
	done := make([]bool, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0

	pq := &refDistQueue{}
	heap.Push(pq, refDistItem{0, src})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refDistItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, nb := range g.Neighbors(it.v) {
			n := int(nb)
			if done[n] {
				continue
			}
			nd := it.d + weight(it.v, n)
			if nd < dist[n] || (nd == dist[n] && it.v < parent[n]) {
				dist[n] = nd
				parent[n] = it.v
				heap.Push(pq, refDistItem{nd, n})
			}
		}
	}
	return dist, parent
}

// refDistItem is a Dijkstra frontier entry.
type refDistItem struct {
	d float64
	v int
}

type refDistQueue []refDistItem

func (q refDistQueue) Len() int { return len(q) }
func (q refDistQueue) Less(i, j int) bool {
	if q[i].d != q[j].d {
		return q[i].d < q[j].d
	}
	return q[i].v < q[j].v
}
func (q refDistQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refDistQueue) Push(x interface{}) { *q = append(*q, x.(refDistItem)) }
func (q *refDistQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
