package serve

// The decision memo cache. Decisions are pure functions of
// (deployment, protocol, λ/k, op, node, packet routing state) — that is the
// premise the whole stateless service plane stands on — so identical
// requests may share one computed forward set. Multicast workloads make
// identical requests constantly: consecutive hops of overlapping
// destination sets walk the same nodes with the same remaining groups
// (PAPERS.md, cs/9809102: dynamic multicast trees are largely shared work).
//
// The cache is a *pure memo*: the key canonicalizes every input the
// decision reads, the value is a deep copy of the decision's forwards, and
// a hit is byte-identical to a cold recompute (enforced by
// TestCacheHitMatchesColdRecompute across all servable protocols). λ and k
// are per-Server constants, so one cache per Server needs no λ/k in the
// key; the deployment is immutable for the server's lifetime. Hash
// collisions cannot break purity because the map key is the full canonical
// byte string, not a digest.

import (
	"container/list"
	"sync"

	"gmp/internal/sim"
)

// DefaultCacheSize bounds the decision memo cache when Config.CacheSize is
// zero. Entries are small (one forward set); 4096 comfortably covers the
// working set of a K=120 streamed walk many times over.
const DefaultCacheSize = 4096

// decisionCache is a bounded LRU shared by every worker's decider. A single
// mutex guards it: lookups copy nothing (values are immutable once
// published) and the critical section is a map probe plus a list splice, so
// contention is negligible next to a cost-tree build.
type decisionCache struct {
	mu    sync.Mutex
	max   int
	lru   list.List // front = most recent; values are *cacheEntry
	byKey map[string]*list.Element

	hits, misses, evictions int64
}

// cacheEntry is one memoized decision: the full canonical key and the
// forward set. fwds and everything it references are immutable after
// insertion — concurrent readers share them without copying.
type cacheEntry struct {
	key  string
	fwds []sim.Forward
}

func newDecisionCache(max int) *decisionCache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &decisionCache{max: max, byKey: make(map[string]*list.Element, max)}
}

// get returns the memoized forward set for key, or nil on a miss. The
// returned slice is shared and read-only.
func (c *decisionCache) get(key []byte) []sim.Forward {
	c.mu.Lock()
	defer c.mu.Unlock()
	// map[string([]byte)] compiles to an allocation-free lookup.
	el, ok := c.byKey[string(key)]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).fwds
}

// put memoizes fwds under key. fwds must be fully owned by the cache —
// deep copies, never aliasing any scratch. A concurrent duplicate insert
// keeps the first entry (by purity both hold identical values).
func (c *decisionCache) put(key []byte, fwds []sim.Forward) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[string(key)]; ok {
		return
	}
	e := &cacheEntry{key: string(key), fwds: fwds}
	c.byKey[e.key] = c.lru.PushFront(e)
	// Eviction is deterministic: strictly least-recently-used, one entry per
	// overflowing insert, so a fixed request sequence always leaves the same
	// residents (TestCacheEvictionDeterministic).
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// counters snapshots hit/miss/eviction totals.
func (c *decisionCache) counters() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// len reports the resident entry count.
func (c *decisionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
