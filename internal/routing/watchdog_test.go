package routing

import (
	"math"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// ringBed builds the watchdog torture topology: six nodes on a hexagon of
// radius 100 around a center node (ID 6), radio range 150. Every ring node's
// live table lists exactly its two ring neighbors at their true positions —
// the center node is MISSING from every table, so greedy can never approach
// it and the face traversal around the inner face has no exit (every ring
// node is equidistant from the target). mutate lets a test corrupt the
// tables further before the provider is built.
func ringBed(t *testing.T, wd view.WatchdogLimits, mutate func(tables [][]view.Neighbor)) (*network.Network, view.Provider) {
	t.Helper()
	center := geom.Pt(150, 150)
	pts := make([]geom.Point, 7)
	for i := 0; i < 6; i++ {
		a := float64(i) * math.Pi / 3
		pts[i] = geom.Pt(center.X+100*math.Cos(a), center.Y+100*math.Sin(a))
	}
	pts[6] = center
	nw, err := network.New(network.FromPoints(pts), 300, 300, 150)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]view.Neighbor, 7)
	for i := 0; i < 6; i++ {
		l, r := (i+5)%6, (i+1)%6
		tables[i] = []view.Neighbor{{ID: l, Pos: pts[l]}, {ID: r, Pos: pts[r]}}
	}
	// The center node's own table is empty: it never forwards anyway.
	tables[6] = nil
	if mutate != nil {
		mutate(tables)
	}
	return nw, view.NewLive(pts, tables, view.LiveConfig{
		RadioRange: 150,
		Planarizer: planar.Gabriel,
		Watchdog:   wd,
	})
}

// TestWatchdogTerminatesLoopingTraversal: with the target missing from every
// neighbor table the perimeter walk circles the inner face forever; the armed
// watchdog must detect the loop, burn its one alternate-planarizer restart,
// and kill the copy as a watchdog drop — long before the hop budget. Every
// decision core with a perimeter mode shares the face step, so each must
// terminate the same way.
func TestWatchdogTerminatesLoopingTraversal(t *testing.T) {
	for _, p := range []Protocol{
		NewGMP(),
		NewGMPnr(),
		NewPBM(0.3),
		NewGRD(),
		NewGeocast(geom.Pt(150, 150), 10),
	} {
		t.Run(p.Name(), func(t *testing.T) {
			nw, views := ringBed(t, view.WatchdogLimits{MaxWalkHops: 30}, nil)
			e := sim.NewEngine(nw, sim.DefaultRadioParams(), 1000)
			e.SetViews(views)
			m := e.RunTask(p, 0, []int{6})

			if !m.Failed() {
				t.Fatalf("unreachable-by-table target delivered: %+v", m.Delivered)
			}
			if m.DropsByReason[sim.ReasonWatchdog] != 1 {
				t.Fatalf("watchdog drops = %d, want 1 (by reason: %v)",
					m.DropsByReason[sim.ReasonWatchdog], m.DropsByReason)
			}
			if m.DropsByReason[sim.ReasonHopBudget] != 0 {
				t.Fatalf("hop budget fired before the watchdog: %v", m.DropsByReason)
			}
			// The hexagon loop is 6 hops; with the restart the walk must die
			// well under the armed bound plus one extra lap.
			if m.Transmissions > 3*30 {
				t.Fatalf("traversal ran %d transmissions before the watchdog fired", m.Transmissions)
			}
			if err := sim.AuditTask(&m, sim.AuditConfig{MaxHops: 1000}); err != nil {
				t.Fatalf("audit: %v", err)
			}
		})
	}
}

// TestWatchdogDisarmedFallsBackToHopBudget: the identical loop under a zero
// WatchdogLimits runs until the engine's hop budget kills it — the
// pre-watchdog behavior, now attributed as a hop-budget drop.
func TestWatchdogDisarmedFallsBackToHopBudget(t *testing.T) {
	nw, views := ringBed(t, view.WatchdogLimits{}, nil)
	e := sim.NewEngine(nw, sim.DefaultRadioParams(), 60)
	e.SetViews(views)
	m := e.RunTask(NewGRD(), 0, []int{6})

	if !m.Failed() {
		t.Fatalf("unreachable-by-table target delivered: %+v", m.Delivered)
	}
	if m.DropsByReason[sim.ReasonHopBudget] != 1 || m.DropsByReason[sim.ReasonWatchdog] != 0 {
		t.Fatalf("drops by reason = %v, want one hop-budget drop", m.DropsByReason)
	}
	if err := sim.AuditTask(&m, sim.AuditConfig{MaxHops: 60}); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestWatchdogDistanceBudget: the distance bound alone (no hop bound) must
// also terminate the loop.
func TestWatchdogDistanceBudget(t *testing.T) {
	nw, views := ringBed(t, view.WatchdogLimits{MaxWalkDist: 1500}, nil)
	e := sim.NewEngine(nw, sim.DefaultRadioParams(), 1000)
	e.SetViews(views)
	m := e.RunTask(NewGRD(), 0, []int{6})
	if m.DropsByReason[sim.ReasonWatchdog] != 1 {
		t.Fatalf("drops by reason = %v, want one watchdog drop", m.DropsByReason)
	}
}

// TestWatchdogSurvivesOneSidedLink: node 2's table omits node 1, so when the
// walk arrives at 2 from 1 the previous hop is unknown (NbrPosOK miss). The
// traversal must fall back to the target-line reference bearing and still
// terminate under the watchdog rather than panicking or wandering forever.
func TestWatchdogSurvivesOneSidedLink(t *testing.T) {
	nw, views := ringBed(t, view.WatchdogLimits{MaxWalkHops: 30}, func(tables [][]view.Neighbor) {
		kept := tables[2][:0]
		for _, e := range tables[2] {
			if e.ID != 1 {
				kept = append(kept, e)
			}
		}
		tables[2] = kept
	})
	e := sim.NewEngine(nw, sim.DefaultRadioParams(), 1000)
	e.SetViews(views)
	m := e.RunTask(NewGRD(), 0, []int{6})

	if !m.Failed() {
		t.Fatalf("unreachable-by-table target delivered: %+v", m.Delivered)
	}
	if got := m.DropsByReason[sim.ReasonWatchdog] + m.DropsByReason[sim.ReasonProtocol]; got != 1 {
		t.Fatalf("drops by reason = %v, want exactly one watchdog or dead-end drop", m.DropsByReason)
	}
	if m.DropsByReason[sim.ReasonHopBudget] != 0 {
		t.Fatalf("hop budget fired: %v", m.DropsByReason)
	}
	if err := sim.AuditTask(&m, sim.AuditConfig{MaxHops: 1000}); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestGhostEntryBilledAsInvalidSend: a fabricated table entry placing an
// out-of-range node right next to the target lures greedy into selecting it;
// the engine must bill the doomed copy as an invalid send and conservation
// must still balance.
func TestGhostEntryBilledAsInvalidSend(t *testing.T) {
	// Chain 0 —— 1 —— 2, range 150; node 0's table adds a ghost claim that
	// node 2 (actually 200 m away) sits at (190, 0) — closer to the target
	// than the honest relay.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0)}
	nw, err := network.New(network.FromPoints(pts), 400, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	tables := [][]view.Neighbor{
		{{ID: 1, Pos: pts[1]}, {ID: 2, Pos: geom.Pt(190, 0)}},
		{{ID: 0, Pos: pts[0]}, {ID: 2, Pos: pts[2]}},
		{{ID: 1, Pos: pts[1]}},
	}
	views := view.NewLive(pts, tables, view.LiveConfig{RadioRange: 150, Planarizer: planar.Gabriel})
	e := sim.NewEngine(nw, sim.DefaultRadioParams(), 100)
	e.SetViews(views)
	m := e.RunTask(NewGRD(), 0, []int{2})

	if m.InvalidSends != 1 || m.DropsByReason[sim.ReasonInvalidSend] != 1 {
		t.Fatalf("invalidSends=%d byReason=%v, want 1/1", m.InvalidSends, m.DropsByReason)
	}
	if !m.Failed() {
		t.Fatalf("ghost-lured copy delivered: %+v", m.Delivered)
	}
	if err := sim.AuditTask(&m, sim.AuditConfig{MaxHops: 100, AllowInvalidSends: true}); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if err := sim.AuditTask(&m, sim.AuditConfig{MaxHops: 100}); err == nil {
		t.Fatal("strict audit must flag the invalid send")
	}
}
