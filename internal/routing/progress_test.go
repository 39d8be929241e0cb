package routing

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/view"
)

func TestProgressDeclared(t *testing.T) {
	want := map[string]Progress{
		"GMP": ProgressSum, "GMPnr": ProgressSum, "GMPmst": ProgressSum, "GMPsmst": ProgressSum,
		"GRD": ProgressPerDest,
		"LGS": ProgressNone, "LGK": ProgressNone, "PBM": ProgressNone, "MCFR": ProgressNone,
		"SMT": ProgressSourceRouted,
	}
	for _, sp := range Specs() {
		w, ok := want[sp.Name]
		if !ok {
			t.Errorf("%s: no expected progress rule in this test", sp.Name)
			continue
		}
		if sp.Progress != w {
			t.Errorf("%s declares progress %v, want %v", sp.Name, sp.Progress, w)
		}
	}
}

func TestAuditProgress(t *testing.T) {
	nw, err := network.New([]network.Node{
		{ID: 0, Pos: geom.Pt(0, 0)}, {ID: 1, Pos: geom.Pt(100, 0)},
		{ID: 2, Pos: geom.Pt(200, 0)}, {ID: 3, Pos: geom.Pt(0, 300)},
	}, 400, 400, 150)
	if err != nil {
		t.Fatal(err)
	}
	// 0→1 brings 2 nearer and leaves 3 farther: 200+300 → 100+316.2.
	hop := sim.TraceEvent{From: 0, To: 1, Dests: []int{2, 3}}
	for _, c := range []struct {
		rule Progress
		ev   sim.TraceEvent
		ok   bool
	}{
		{ProgressSum, hop, true},
		{ProgressPerDest, hop, false},
		{ProgressPerDest, sim.TraceEvent{From: 0, To: 1, Dests: []int{2}}, true},
		{ProgressSum, sim.TraceEvent{From: 1, To: 0, Dests: []int{2}}, false},
		{ProgressSum, sim.TraceEvent{From: 1, To: 0, Dests: []int{2}, Perimeter: true}, true},
		{ProgressNone, sim.TraceEvent{From: 1, To: 0, Dests: []int{2}}, true},
		{ProgressSourceRouted, sim.TraceEvent{From: 1, To: 0, Dests: []int{2}}, true},
	} {
		if err := AuditProgress(nw, c.rule, []sim.TraceEvent{c.ev}); (err == nil) != c.ok {
			t.Errorf("%v on %+v: got %v, want ok=%v", c.rule, c.ev, err, c.ok)
		}
	}
}

// TestPBMProgressAtLambdaZero pins why PBM declares no progress rule: only
// its λ term trades progress away. At λ = 0 every destination rides to its
// closest neighbor, so every greedy hop makes per-destination progress.
func TestPBMProgressAtLambdaZero(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 60 + r.Intn(300)
		nw, err := network.New(network.DeployUniform(n, 1200, 1200, r), 1200, 1200, 150)
		if err != nil {
			t.Fatal(err)
		}
		src, dests := pickTask(r, n, 1+r.Intn(20))
		en := sim.NewEngine(nw, sim.DefaultRadioParams(), 600)
		en.SetViews(view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel)))
		var events []sim.TraceEvent
		en.SetTracer(func(ev sim.TraceEvent) { events = append(events, ev) })
		en.RunTask(NewPBM(0), src, dests)
		if err := AuditProgress(nw, ProgressPerDest, events); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
