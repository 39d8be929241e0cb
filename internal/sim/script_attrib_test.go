package sim

import "testing"

// TestScriptMetricsPerSessionAttribution runs two overlapping sessions over
// shared relays and asserts that every counter lands on its own session:
// transmissions, deliveries, timing and drops must be disjoint and exact.
func TestScriptMetricsPerSessionAttribution(t *testing.T) {
	nw := chainNet(t, 8)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	res := e.RunScript([]Session{
		{Start: 0, Handler: chainHandler{}, Src: 0, Dests: []int{3, 7}},
		// Destination 0 sits behind the chain walk, so this session's copy
		// reaches the chain end undelivered and is dropped there.
		{Start: 0, Handler: chainHandler{}, Src: 2, Dests: []int{5, 0}},
	})
	a, b := res[0], res[1]

	if a.Transmissions != 7 || a.Drops() != 0 || a.Failed() {
		t.Fatalf("session A: %+v", a.TaskMetrics)
	}
	if a.Delivered[3] != 3 || a.Delivered[7] != 7 {
		t.Fatalf("session A deliveries: %v", a.Delivered)
	}
	if b.Transmissions != 5 || b.Drops() != 1 || !b.Failed() {
		t.Fatalf("session B: %+v", b.TaskMetrics)
	}
	if b.Delivered[5] != 3 {
		t.Fatalf("session B deliveries: %v", b.Delivered)
	}
	for d := range a.DeliveredAt {
		if _, clash := b.DeliveredAt[d]; clash {
			t.Fatalf("destination %d billed to both sessions", d)
		}
	}
	if a.InvalidSends != 0 || b.InvalidSends != 0 {
		t.Fatal("invalid sends in a legal script")
	}
	// Both sessions ran on the shared medium: energy sums must match two
	// independent single runs' totals (no cross-session bleed).
	solo := NewEngine(nw, DefaultRadioParams(), 0)
	sa := solo.RunTask(chainHandler{}, 0, []int{3, 7})
	sb := solo.RunTask(chainHandler{}, 2, []int{5, 0})
	if a.EnergyJ != sa.EnergyJ || b.EnergyJ != sb.EnergyJ {
		t.Fatalf("energy bled across sessions: %v/%v vs solo %v/%v",
			a.EnergyJ, b.EnergyJ, sa.EnergyJ, sb.EnergyJ)
	}
}
