package beacon

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/planar"
	"gmp/internal/view"
)

// hasID reports whether id appears in ids.
func hasID[T int | int32](ids []T, id int) bool {
	for _, n := range ids {
		if int(n) == id {
			return true
		}
	}
	return false
}

// TestMaskedOverAgedViews walks a blacklisted neighbor through the full
// aging lifecycle — heard, departed-but-ghosting, expired, re-beaconed —
// and asserts the engine's dead-link mask composes with every stage: the
// banned neighbor is unusable throughout, while the unmasked base view
// reflects aging honestly (present → absent → present again).
func TestMaskedOverAgedViews(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	// Node 1 leaves radio range at t=5 and returns at t=12 (twoNodeWalkabout).
	tk, err := NewTracker(cfg, 2, twoNodeWalkabout, 150, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	banned := map[int]bool{1: true} // the engine's per-session ban set, by reference
	wd := view.WatchdogLimits{MaxWalkHops: 40}

	views := func(at float64) (base, masked view.NodeView) {
		if err := tk.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		self := twoNodeWalkabout(at)
		p := ViewsArmed(self, tk.Tables(), 150, planar.Gabriel, wd)
		b := p.At(0, new(view.Scratch))
		return b, view.NewMasked(b, banned)
	}

	// Heard and in range: the base view has the neighbor, the mask hides it.
	base, masked := views(4.5)
	if !hasID(base.Neighbors(), 1) {
		t.Fatal("base view missing fresh neighbor")
	}
	if hasID(masked.Neighbors(), 1) || masked.Degree() != 0 {
		t.Fatal("mask leaked the banned neighbor")
	}
	// A ban is not amnesia: the advertised position stays known.
	if _, ok := masked.NbrPosOK(1); !ok {
		t.Fatal("mask erased position knowledge")
	}
	if got := masked.(view.WatchdogCarrier).PerimeterWatchdog(); got != wd {
		t.Fatalf("watchdog not delegated through the mask: %+v", got)
	}

	// Departed but within TTL: a ghost entry, still masked.
	base, masked = views(6.9)
	if !hasID(base.Neighbors(), 1) {
		t.Fatal("ghost entry expired early")
	}
	if hasID(masked.Neighbors(), 1) {
		t.Fatal("mask leaked the ghost entry")
	}

	// Expired: gone from the base view too, and position knowledge with it.
	base, masked = views(7.5)
	if hasID(base.Neighbors(), 1) {
		t.Fatal("expired entry still in base view")
	}
	if hasID(masked.Neighbors(), 1) {
		t.Fatal("mask resurrected an expired entry")
	}
	if _, ok := masked.NbrPosOK(1); ok {
		t.Fatal("expired entry still has a position")
	}

	// Re-beaconed: back in the base view; the session ban still filters it.
	base, masked = views(12.5)
	if !hasID(base.Neighbors(), 1) {
		t.Fatal("returned neighbor not re-beaconed into the base view")
	}
	if hasID(masked.Neighbors(), 1) || hasID(masked.PlanarNeighbors(), 1) {
		t.Fatal("session ban forgotten after re-beacon")
	}
}

// TestMaskedOverAdversarialTables replays PR 4's ghost-entry and one-sided-
// entry table corruptions through the live-view adapter and checks the mask
// composes with both.
func TestMaskedOverAdversarialTables(t *testing.T) {
	self := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0)}

	// Ghost entry: node 0's table advertises neighbor 1 at a position where
	// nobody lives anymore; node 1's table is empty (it heard no one).
	ghost := [][]Entry{
		{{ID: 1, Pos: geom.Pt(100, 0), HeardAt: 1}},
		nil,
		{{ID: 1, Pos: geom.Pt(100, 0), HeardAt: 1}},
	}
	p := ViewsArmed(self, ghost, 150, planar.Gabriel, view.WatchdogLimits{MaxWalkHops: 40})
	masked := view.NewMasked(p.At(0, new(view.Scratch)), map[int]bool{1: true})
	if masked.Degree() != 0 || len(masked.PlanarNeighbors()) != 0 {
		t.Fatal("mask leaked the ghost entry into an adjacency")
	}
	if _, ok := masked.NbrPosOK(1); !ok {
		t.Fatal("ghost's advertised position should remain known")
	}
	if av, ok := view.NodeView(masked).(view.AltPlanarView); !ok || hasID(av.AltPlanarNeighbors(), 1) {
		t.Fatal("mask leaked the ghost entry into the alternate planarization")
	}

	// One-sided entry: node 1 heard node 0, node 0 never heard node 1. The
	// receiver-side unknown (node 0) must report !ok, and masking node 1's
	// only usable neighbor leaves it isolated.
	oneSided := [][]Entry{
		nil,
		{{ID: 0, Pos: geom.Pt(0, 0), HeardAt: 1}},
		nil,
	}
	p = ViewsArmed(self, oneSided, 150, planar.Gabriel, view.WatchdogLimits{})
	if _, ok := p.At(0, new(view.Scratch)).NbrPosOK(1); ok {
		t.Fatal("node 0 should not know the one-sided sender")
	}
	masked = view.NewMasked(p.At(1, new(view.Scratch)), map[int]bool{0: true})
	if masked.Degree() != 0 || len(masked.PlanarNeighbors()) != 0 {
		t.Fatal("mask left the one-sided link usable")
	}
}
