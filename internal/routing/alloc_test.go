package routing

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/testutil"
	"gmp/internal/view"
)

// TestGMPDecisionAllocBudget pins the steady-state allocation budget of one
// bare GMP decision (group split + next-hop selection for 12 destinations).
// The decision arena in view.Scratch keeps the decision core down to the
// forwards it must return fresh (purity: callers may retain them); the budget
// is the ISSUE 5 acceptance ceiling, ≤ 30% of the PR 3 baseline of 230.
// Regressions here mean a hot-path slice escaped its arena.
func TestGMPDecisionAllocBudget(t *testing.T) {
	testutil.SkipIfRace(t)
	r := rand.New(rand.NewSource(1))
	nw, err := network.New(network.DeployUniform(1000, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	pg := planar.Planarize(nw, planar.Gabriel)
	v := view.NewOracle(nw, pg).At(0, new(view.Scratch))
	gmp := NewGMP()
	dests := []int{100, 250, 400, 550, 700, 850, 950, 50, 300, 600, 750, 900}
	locs := make([]geom.Point, len(dests))
	for i, d := range dests {
		locs[i] = nw.Pos(d)
	}
	pkt := &sim.Packet{Header: sim.Header{Dests: dests, Locs: locs, Anchor: -1}}
	avg := testing.AllocsPerRun(200, func() {
		if fwds := gmp.Start(v, pkt); len(fwds) == 0 {
			t.Fatal("no forwards")
		}
	})
	const budget = 69
	if avg > budget {
		t.Errorf("GMP decision: %.1f allocs/op, budget %d", avg, budget)
	}
}
