package experiment

import (
	"testing"

	"gmp/internal/sim"
)

// TestTallyAddMerge: add counts every ledger of a task, merge sums tallies
// field by field, and the ratio getters divide by the right denominators.
func TestTallyAddMerge(t *testing.T) {
	full := sim.TaskMetrics{
		Transmissions: 7, Retransmissions: 2, LinkFailures: 1, Acks: 5,
		EnergyJ:   0.5,
		Delivered: map[int]int{3: 2, 4: 5},
		DestCount: 2, JoinsSpliced: 1, JoinsMissed: 2,
	}
	full.DropsByReason[sim.ReasonHopBudget] = 1
	// A destination that left is not a miss: the task below reached every
	// destination still owed (eligible 1 of 2) and does not fail.
	left := sim.TaskMetrics{Transmissions: 3, EnergyJ: 0.25, Delivered: map[int]int{9: 3}, DestCount: 2}
	left.DropsByReason[sim.ReasonLeft] = 1
	left.DestDropsByReason[sim.ReasonLeft] = 1
	// A genuine miss fails.
	missed := sim.TaskMetrics{Transmissions: 2, Delivered: map[int]int{}, DestCount: 1}
	missed.DropsByReason[sim.ReasonProtocol] = 1
	missed.DestDropsByReason[sim.ReasonProtocol] = 1

	var a, b Tally
	a.add(&full)
	a.add(&left)
	b.add(&missed)
	a.merge(b)

	want := Tally{
		Tasks: 3, FailedTasks: 1,
		DeliveredDests: 3, DestCount: 5, EligibleDests: 4, DeliveredHopsSum: 10,
		Transmissions: 12, Retransmissions: 2, LinkFailures: 1, Acks: 5,
		JoinsSpliced: 1, JoinsMissed: 2, EnergyJ: 0.75,
	}
	want.DropsByReason[sim.ReasonHopBudget] = 1
	want.DropsByReason[sim.ReasonLeft] = 1
	want.DropsByReason[sim.ReasonProtocol] = 1
	want.DestDropsByReason[sim.ReasonLeft] = 1
	want.DestDropsByReason[sim.ReasonProtocol] = 1
	if a != want {
		t.Fatalf("tally:\n got  %+v\n want %+v", a, want)
	}
	if got := a.DeliveryRatio(); got != 0.75 {
		t.Errorf("DeliveryRatio = %v, want 3/4 eligible", got)
	}
	if got := a.MeanTransmissions(); got != 4 {
		t.Errorf("MeanTransmissions = %v, want 12/3", got)
	}
	if got := a.MeanEnergyJ(); got != 0.25 {
		t.Errorf("MeanEnergyJ = %v, want 0.75/3", got)
	}
	var empty Tally
	if empty.DeliveryRatio() != 0 || empty.MeanTransmissions() != 0 || empty.MeanEnergyJ() != 0 {
		t.Error("empty tally ratios must read 0")
	}
}

// TestMergeNetworksOrder: cells merge per (point, series) in network-index
// order, so float sums nest exactly as a hand-written network loop would.
func TestMergeNetworksOrder(t *testing.T) {
	energies := []float64{0.1, 0.2, 0.3}
	grid := make([][][]Tally, len(energies))
	want := 0.0
	for n, e := range energies {
		grid[n] = [][]Tally{{{Tasks: 1, EnergyJ: e}, {Tasks: 2}}}
		want += e
	}
	sum := mergeNetworks(grid)
	if len(sum) != 1 || len(sum[0]) != 2 {
		t.Fatalf("shape %d points, want [1][2]", len(sum))
	}
	if sum[0][0].EnergyJ != want || sum[0][0].Tasks != 3 || sum[0][1].Tasks != 6 {
		t.Fatalf("merged %+v", sum[0])
	}
}
