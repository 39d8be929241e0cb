package steiner

import (
	"gmp/internal/geom"
)

// Dest is a multicast destination handed to a tree builder: a position plus
// the caller's identifier (for example a network node ID).
type Dest struct {
	Pos   geom.Point
	Label int
}

// Options configures the rrSTR construction (paper Figure 3 and §3.3).
type Options struct {
	// RadioRange is the transmission radius of the current node, used by the
	// radio-range-aware special cases. It must be positive when RadioAware
	// is set.
	RadioRange float64
	// RadioAware enables the §3.3 special cases that suppress virtual
	// destinations which would only add hops. Disabling it yields GMPnr,
	// the paper's ablation variant.
	RadioAware bool
}

// pairItem is a candidate destination pair in the reduction-ratio queue. It
// is 16 bytes: the queue holds all K(K-1)/2 pairs of a K-destination build,
// so the Steiner point is not stored but recomputed for the few pairs the
// build actually processes.
type pairItem struct {
	// rr is the pair's exact reduction ratio when the item is exact, and an
	// upper bound on it (reductionRatioBound) otherwise.
	rr float64
	// ids packs u<<32 | v<<1 | exact for vertex IDs u < v < 2^31, so one
	// integer comparison orders items by u, then v. A Build's pair queue
	// holds K(K-1)/2 items, so no build that fits in memory comes near the
	// 31-bit ID limit.
	ids uint64
}

func newPairItem(rr float64, u, v int, exact bool) pairItem {
	ids := uint64(u)<<32 | uint64(v)<<1
	if exact {
		ids |= 1
	}
	return pairItem{rr: rr, ids: ids}
}

// pair returns the item's vertex IDs, u < v.
func (it pairItem) pair() (u, v int) {
	return int(it.ids >> 32), int(uint32(it.ids) >> 1)
}

// exact reports whether rr is the pair's exact reduction ratio.
func (it pairItem) exact() bool { return it.ids&1 != 0 }

// pairQueue is a max-heap of pairItems keyed by rr with a deterministic
// (u, v) tie-break. It is hand-rolled rather than built on container/heap:
// the standard heap boxes every element into an interface{}, one allocation
// per push, which the per-decision rrSTR rebuild cannot afford. A pair is in
// the queue at most once, so the ordering is a strict total order: every pop
// returns the unique maximum, and the pop sequence does not depend on the
// heap's internal layout.
type pairQueue []pairItem

// before reports whether item i has priority over item j.
func (q pairQueue) before(i, j int) bool {
	if q[i].rr != q[j].rr {
		return q[i].rr > q[j].rr
	}
	return q[i].ids < q[j].ids
}

// init heapifies the queue in place.
func (q pairQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *pairQueue) push(it pairItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *pairQueue) pop() pairItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	it := h[n]
	*q = h[:n]
	(*q).down(0)
	return it
}

func (q pairQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.before(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q pairQueue) down(i int) {
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

// Build runs the rrSTR heuristic (paper Figure 3): it constructs a virtual
// Euclidean Steiner tree rooted at source and spanning all dests. The tree
// may contain Virtual vertices at exact three-point Steiner locations.
//
// The returned tree always satisfies Validate: it is acyclic and every
// terminal is connected to the source. Build never fails; degenerate inputs
// (no destinations, collocated points) produce the obvious trees.
//
// Build allocates a fresh arena per call. A forwarding hot path that builds
// one tree per decision should hold a Builder instead and call its Build,
// which reuses all internal storage.
func Build(source geom.Point, dests []Dest, opts Options) *Tree {
	return new(Builder).Build(source, dests, opts)
}
