package routing

import (
	"fmt"

	"gmp/internal/network"
	"gmp/internal/sim"
)

// Progress is the per-hop progress rule a protocol's greedy-mode copies
// obey, declared once on its Spec so that audits check each protocol
// against its own claim. Perimeter-mode copies are exempt under every rule:
// face routing makes no greedy progress.
type Progress uint8

const (
	// ProgressNone declares no per-hop rule: LGS's anchor-bound greedy
	// steps may lengthen the group's total, PBM's λ trades progress for
	// fewer copies, and MCFR is face routing. It is the zero value.
	ProgressNone Progress = iota
	// ProgressSum: each copy's receiver is strictly closer in total to the
	// copy's destinations than its sender — GMP's loop-freedom rule (paper
	// Figure 7 step 4).
	ProgressSum
	// ProgressPerDest: the receiver is strictly closer than the sender to
	// every one of the copy's destinations (greedy unicast, GRD).
	ProgressPerDest
	// ProgressSourceRouted: the source computes the whole route (SMT), so
	// no relay decision has a progress rule of its own.
	ProgressSourceRouted
)

// AuditProgress checks every greedy-mode transmission of a traced run
// against rule, with every distance taken at nw's positions: those an
// oracle view's decider sees, and those the engine writes into a task's
// header. It returns an error naming the first violating hop.
func AuditProgress(nw *network.Network, rule Progress, events []sim.TraceEvent) error {
	if rule != ProgressSum && rule != ProgressPerDest {
		return nil
	}
	for i, ev := range events {
		if ev.Perimeter {
			continue
		}
		from, to := nw.Pos(ev.From), nw.Pos(ev.To)
		var fromSum, toSum float64
		for _, d := range ev.Dests {
			df, dt := from.Dist(nw.Pos(d)), to.Dist(nw.Pos(d))
			if rule == ProgressPerDest && !(dt < df) {
				return fmt.Errorf("routing: hop %d (%d→%d at t=%g) makes no progress toward destination %d: %g → %g m",
					i, ev.From, ev.To, ev.Time, d, df, dt)
			}
			fromSum += df
			toSum += dt
		}
		if rule == ProgressSum && !(toSum < fromSum) {
			return fmt.Errorf("routing: hop %d (%d→%d at t=%g) makes no progress on the total distance to %v: %g → %g m",
				i, ev.From, ev.To, ev.Time, ev.Dests, fromSum, toSum)
		}
	}
	return nil
}
