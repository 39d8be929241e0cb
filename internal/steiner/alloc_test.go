package steiner

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/testutil"
)

// TestRRSTRBuildAllocBudget pins the steady-state allocation budget of one
// radio-aware rrSTR construction on a reused Builder — the arena GMP keeps
// per node. After warm-up every buffer (tree vertices/edges/adjacency, pair
// heap, source distances) is recycled, so the budget is ≤ 30% of the 171
// allocs/op a build made before the arena existed. Regressions here mean a
// Build temporary escaped the arena.
func TestRRSTRBuildAllocBudget(t *testing.T) {
	testutil.SkipIfRace(t)
	r := rand.New(rand.NewSource(3))
	source := geom.Pt(500, 500)
	dests := make([]Dest, 12)
	for i := range dests {
		dests[i] = Dest{Pos: geom.Pt(r.Float64()*1000, r.Float64()*1000), Label: i}
	}
	opts := Options{RadioRange: 150, RadioAware: true}
	var b Builder
	avg := testing.AllocsPerRun(200, func() {
		if tree := b.Build(source, dests, opts); tree == nil {
			t.Fatal("nil tree")
		}
	})
	const budget = 51
	if avg > budget {
		t.Errorf("rrSTR build: %.1f allocs/op, budget %d", avg, budget)
	}
}
