package experiment

import "gmp/internal/sim"

// Tally sums the paper's §5 outcomes over a set of tasks: the counters
// every campaign driver reports (Figures 11, 12, 14 and 15 and the
// extension campaigns' ledgers). Drivers add each finished task to the
// tally of its cell and merge cells in network-index order, so float sums
// nest the same way at every worker count: per task within a cell, then
// cells in network order.
type Tally struct {
	// Tasks counts the tasks added; FailedTasks those that missed an
	// eligible destination (sim.TaskMetrics.Failed — a destination that
	// left mid-session is not a miss).
	Tasks       int
	FailedTasks int
	// DeliveredDests, DestCount and EligibleDests count destinations:
	// reached, originated (mid-session joins included), and originated
	// minus those retired by a leave.
	DeliveredDests int
	DestCount      int
	EligibleDests  int
	// DeliveredHopsSum sums the hop counts at which destinations were
	// first reached (Figure 12's numerator).
	DeliveredHopsSum int
	// Transmissions (Figure 11, retransmissions included), Retransmissions,
	// LinkFailures and Acks sum the engine's per-task counters.
	Transmissions   int
	Retransmissions int
	LinkFailures    int
	Acks            int
	// DropsByReason and DestDropsByReason sum the per-reason copy and
	// destination drop ledgers.
	DropsByReason     [sim.NumDropReasons]int
	DestDropsByReason [sim.NumDropReasons]int
	// JoinsSpliced and JoinsMissed sum the mid-session join accounting.
	JoinsSpliced int
	JoinsMissed  int
	// EnergyJ sums task energy in joules (Figure 14).
	EnergyJ float64
}

// add counts one finished task.
func (t *Tally) add(m *sim.TaskMetrics) {
	t.Tasks++
	if m.Failed() {
		t.FailedTasks++
	}
	t.DeliveredDests += len(m.Delivered)
	t.DestCount += m.DestCount
	t.EligibleDests += m.EligibleDests()
	for _, h := range m.Delivered {
		t.DeliveredHopsSum += h
	}
	t.Transmissions += m.Transmissions
	t.Retransmissions += m.Retransmissions
	t.LinkFailures += m.LinkFailures
	t.Acks += m.Acks
	for reason := range t.DropsByReason {
		t.DropsByReason[reason] += m.DropsByReason[reason]
		t.DestDropsByReason[reason] += m.DestDropsByReason[reason]
	}
	t.JoinsSpliced += m.JoinsSpliced
	t.JoinsMissed += m.JoinsMissed
	t.EnergyJ += m.EnergyJ
}

// merge adds another tally's counts to t.
func (t *Tally) merge(o Tally) {
	t.Tasks += o.Tasks
	t.FailedTasks += o.FailedTasks
	t.DeliveredDests += o.DeliveredDests
	t.DestCount += o.DestCount
	t.EligibleDests += o.EligibleDests
	t.DeliveredHopsSum += o.DeliveredHopsSum
	t.Transmissions += o.Transmissions
	t.Retransmissions += o.Retransmissions
	t.LinkFailures += o.LinkFailures
	t.Acks += o.Acks
	for reason := range t.DropsByReason {
		t.DropsByReason[reason] += o.DropsByReason[reason]
		t.DestDropsByReason[reason] += o.DestDropsByReason[reason]
	}
	t.JoinsSpliced += o.JoinsSpliced
	t.JoinsMissed += o.JoinsMissed
	t.EnergyJ += o.EnergyJ
}

// DeliveryRatio is delivered over eligible destinations, 0 when none was
// eligible.
func (t Tally) DeliveryRatio() float64 {
	return ratio(float64(t.DeliveredDests), float64(t.EligibleDests))
}

// MeanTransmissions is the mean transmissions per task, 0 for no tasks.
func (t Tally) MeanTransmissions() float64 {
	return ratio(float64(t.Transmissions), float64(t.Tasks))
}

// MeanEnergyJ is the mean energy per task in joules, 0 for no tasks.
func (t Tally) MeanEnergyJ() float64 { return ratio(t.EnergyJ, float64(t.Tasks)) }

// mergeNetworks sums a [network][point][series] grid of cell tallies into
// [point][series], adding networks in index order. The grid holds at least
// one network (every Config validates Networks ≥ 1).
func mergeNetworks(grid [][][]Tally) [][]Tally {
	out := make([][]Tally, len(grid[0]))
	for p := range out {
		out[p] = make([]Tally, len(grid[0][p]))
	}
	for _, points := range grid {
		for p, series := range points {
			for s, c := range series {
				out[p][s].merge(c)
			}
		}
	}
	return out
}
