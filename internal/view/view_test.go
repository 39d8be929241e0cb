package view

import (
	"reflect"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
)

// lineNetwork builds an n-node chain with 100 m spacing and 150 m range.
func lineNetwork(t *testing.T, n int) *network.Network {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*100, 0)
	}
	nw, err := network.New(network.FromPoints(pts), float64(n)*100, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestLiveNbrPosOKAtOrigin is the zero-Point regression test: a node sitting
// exactly at the origin advertises the position (0,0), which is identical to
// the zero value NbrPos returns for an unknown ID. NbrPosOK must tell the
// two apart.
func TestLiveNbrPosOKAtOrigin(t *testing.T) {
	l := NewLive(
		[]geom.Point{geom.Pt(50, 0), geom.Pt(0, 0)},
		[][]Neighbor{
			{{ID: 1, Pos: geom.Pt(0, 0)}},
			{{ID: 0, Pos: geom.Pt(50, 0)}},
		},
		LiveConfig{RadioRange: 100, Planarizer: planar.Gabriel},
	)
	v := l.At(0, new(Scratch))

	if p, ok := v.NbrPosOK(1); !ok || p != geom.Pt(0, 0) {
		t.Fatalf("neighbor at origin: pos=%v ok=%v, want (0,0)/true", p, ok)
	}
	if p, ok := v.NbrPosOK(7); ok {
		t.Fatalf("unknown ID must report ok=false, got pos=%v ok=%v", p, ok)
	}
	// The plain lookup returns identical points for both — the ambiguity
	// NbrPosOK exists to resolve.
	if v.NbrPos(1) != v.NbrPos(7) {
		t.Fatal("test premise broken: origin neighbor and unknown ID should collide under NbrPos")
	}
	// Self is always in view.
	if p, ok := v.NbrPosOK(0); !ok || p != geom.Pt(50, 0) {
		t.Fatalf("self lookup: pos=%v ok=%v", p, ok)
	}
}

// TestLiveNbrPosOKBeyondInt32: the table holds int32 IDs, so an ID whose
// low 32 bits name a real neighbor must still miss, not alias it.
func TestLiveNbrPosOKBeyondInt32(t *testing.T) {
	l := NewLive(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(50, 0)},
		[][]Neighbor{
			{{ID: 1, Pos: geom.Pt(50, 0)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
		},
		LiveConfig{RadioRange: 100, Planarizer: planar.Gabriel},
	)
	v := l.At(0, new(Scratch))
	wide := int64(1)<<32 + 1
	if int64(int(wide)) != wide {
		t.Skip("int is 32 bits wide")
	}
	if _, ok := v.NbrPosOK(1); !ok {
		t.Fatal("test premise broken: neighbor 1 must be in view")
	}
	if p, ok := v.NbrPosOK(int(wide)); ok || p != (geom.Point{}) {
		t.Fatalf("ID 1<<32 + 1: pos=%v ok=%v, want the zero Point and false", p, ok)
	}
	if p := v.NbrPos(int(wide)); p != (geom.Point{}) {
		t.Fatalf("NbrPos(1<<32 + 1) = %v, want the zero Point", p)
	}
}

// TestNewLiveRefusesIDBeyondInt32: a table entry whose ID does not fit
// int32 panics in NewLive instead of being narrowed to the neighbor its low
// bits name.
func TestNewLiveRefusesIDBeyondInt32(t *testing.T) {
	wide := int64(1)<<32 + 1
	if int64(int(wide)) != wide {
		t.Skip("int is 32 bits wide")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewLive accepted table entry ID 1<<32 + 1")
		}
	}()
	NewLive(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(50, 0)},
		[][]Neighbor{
			{{ID: 1, Pos: geom.Pt(50, 0)}, {ID: int(wide), Pos: geom.Pt(60, 0)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
		},
		LiveConfig{RadioRange: 100, Planarizer: planar.Gabriel},
	)
}

// TestOracleNbrPosOK: every valid node ID is in an oracle view; out-of-range
// IDs are not.
func TestOracleNbrPosOK(t *testing.T) {
	nw := lineNetwork(t, 3)
	o := NewOracle(nw, nil)
	v := o.At(0, new(Scratch))
	if _, ok := v.NbrPosOK(2); !ok {
		t.Fatal("oracle must know every valid node")
	}
	if _, ok := v.NbrPosOK(3); ok {
		t.Fatal("oracle must reject out-of-range IDs")
	}
	if _, ok := v.NbrPosOK(-1); ok {
		t.Fatal("oracle must reject negative IDs")
	}
}

// TestMaskedFiltersAllAdjacencies: a Masked view removes banned IDs from
// every adjacency accessor while leaving position knowledge intact.
func TestMaskedFiltersAllAdjacencies(t *testing.T) {
	l := NewLive(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(0, 80), geom.Pt(80, 80)},
		[][]Neighbor{
			{{ID: 1, Pos: geom.Pt(80, 0)}, {ID: 2, Pos: geom.Pt(0, 80)}, {ID: 3, Pos: geom.Pt(80, 80)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
		},
		LiveConfig{
			RadioRange: 150,
			Planarizer: planar.Gabriel,
			Watchdog:   WatchdogLimits{MaxWalkHops: 10},
		},
	)
	base := l.At(0, new(Scratch))
	m := NewMasked(base, map[int]bool{1: true})

	if got := m.Neighbors(); !reflect.DeepEqual(got, []int32{2, 3}) {
		t.Fatalf("masked Neighbors = %v, want [2 3]", got)
	}
	if m.Degree() != 2 {
		t.Fatalf("masked Degree = %d, want 2", m.Degree())
	}
	for _, n := range m.PlanarNeighbors() {
		if n == 1 {
			t.Fatal("banned ID leaked into PlanarNeighbors")
		}
	}
	for _, n := range m.AltPlanarNeighbors() {
		if n == 1 {
			t.Fatal("banned ID leaked into AltPlanarNeighbors")
		}
	}
	// Position knowledge survives the ban: the link is dead, not the node's
	// advertised location.
	if p, ok := m.NbrPosOK(1); !ok || p != geom.Pt(80, 0) {
		t.Fatalf("banned neighbor position lost: %v %v", p, ok)
	}
	// The watchdog capability passes through.
	if wd := m.PerimeterWatchdog(); wd.MaxWalkHops != 10 {
		t.Fatalf("watchdog limits not delegated: %+v", wd)
	}
	// Unmasked accessors unchanged.
	if got := base.Neighbors(); !reflect.DeepEqual(got, []int32{1, 2, 3}) {
		t.Fatalf("base Neighbors mutated: %v", got)
	}
}

// TestWatchdogLimitsArmed: the zero value is disarmed; either bound arms it.
func TestWatchdogLimitsArmed(t *testing.T) {
	if (WatchdogLimits{}).Armed() {
		t.Fatal("zero limits must be disarmed")
	}
	if !(WatchdogLimits{MaxWalkHops: 1}).Armed() {
		t.Fatal("hop bound must arm")
	}
	if !(WatchdogLimits{MaxWalkDist: 1}).Armed() {
		t.Fatal("distance bound must arm")
	}
}

// TestNoPerNodeArena pins the arena ownership rule: no provider's per-node
// type holds a Scratch value, directly or in a nested struct, array, slice
// or map. Views may only hold the *Scratch their decider lent them.
func TestNoPerNodeArena(t *testing.T) {
	arena := reflect.TypeOf(Scratch{})
	var holds func(reflect.Type) bool
	holds = func(typ reflect.Type) bool {
		if typ == arena {
			return true
		}
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if holds(typ.Field(i).Type) {
					return true
				}
			}
		case reflect.Array, reflect.Slice, reflect.Map:
			return holds(typ.Elem())
		}
		return false
	}
	for _, v := range []any{oracleView{}, liveView{}, Masked{}} {
		if typ := reflect.TypeOf(v); holds(typ) {
			t.Errorf("%v holds a Scratch value: decision arenas belong to the decider, not the node", typ)
		}
	}
}

// TestPlanarBearingsCached: every provider's bearings are parallel to the
// planar adjacency, bit-identical to geom.Bearing from the substrate
// position, and computed once per view.
func TestPlanarBearingsCached(t *testing.T) {
	nw := lineNetwork(t, 4)
	pg := planar.Planarize(nw, planar.Gabriel)
	live := NewLive(
		[]geom.Point{nw.Pos(0), nw.Pos(1), nw.Pos(2), nw.Pos(3)},
		[][]Neighbor{
			{{ID: 1, Pos: nw.Pos(1)}},
			{{ID: 0, Pos: nw.Pos(0)}, {ID: 2, Pos: nw.Pos(2)}},
			{{ID: 1, Pos: nw.Pos(1)}, {ID: 3, Pos: nw.Pos(3)}},
			{{ID: 2, Pos: nw.Pos(2)}},
		},
		LiveConfig{RadioRange: 150, Planarizer: planar.Gabriel},
	)
	s := new(Scratch)
	views := map[string]NodeView{
		"oracle": NewOracle(nw, pg).At(1, s),
		"live":   live.At(1, s),
		"masked": NewMasked(NewOracle(nw, pg).At(1, s), map[int]bool{0: true}),
	}
	for name, v := range views {
		nbrs := v.PlanarNeighbors()
		b := v.PlanarBearings()
		if len(b) != len(nbrs) || len(nbrs) == 0 {
			t.Fatalf("%s: %d bearings for planar neighbors %v", name, len(b), nbrs)
		}
		for i, n := range nbrs {
			if want := geom.Bearing(v.PlanarSelfPos(), v.PlanarPos(n)); b[i] != want {
				t.Fatalf("%s: bearing to %d = %v, want %v", name, n, b[i], want)
			}
		}
		if &v.PlanarBearings()[0] != &b[0] {
			t.Fatalf("%s: bearings recomputed on the second call", name)
		}
		if v.Scratch() != s {
			t.Fatalf("%s: Scratch() is not the lent arena", name)
		}
	}
}
