package sim

// Membership churn, built from sessionChurn's per-packet rules (fire,
// retire, board, finish in churn.go).
//
// An arrival in one tile must not reach into the coordinator's churn
// bookkeeping mid-round, so churn fires at window barriers, when no worker
// is running and a key invariant holds: every live packet copy of a session
// is attached to exactly one queued event (a copy popped during a round
// either dissolves, delivers, or reappears as copies on follow-up events
// before the round ends). The barrier can therefore enumerate and edit every
// in-flight header directly:
//
//   - A fired leave strips the destination from every queued copy, billed as
//     ReasonLeft once per destination. Copies made later inherit stripped
//     parents, so one sweep per leave-firing barrier is complete. Emptied
//     copies dissolve when their event fires.
//   - A fired join is boarded onto the earliest queued copy of its session —
//     earliest in kernel order, i.e. the first copy that would "pass by" —
//     wherever in the region that copy is held, including a remote tile's
//     inbox. Joins with no live copy to board stay queued; if none ever
//     appears they are counted JoinsMissed at the end of the run.
//   - Retiring a copy's anchor destination re-anchors at the node currently
//     holding the copy (the receiver for a queued arrival, the sender for a
//     queued retry/give-up, the source for an unstarted session).
//
// A change scheduled at time t takes effect at the first barrier whose
// floor T ≥ t, so it lands within one window (≤ lookahead) of t — and
// identically so for every worker count, since barriers depend only on
// event times, never on workers.

// churnBarrier fires all membership events with at ≤ T and applies them to
// the queued in-flight packets. Coordinator-only: runs between rounds.
func (r *kernel) churnBarrier(T float64) {
	for si := range r.sess {
		sc := r.sess[si].churn
		if sc == nil {
			continue
		}
		m := &r.base[si]
		if sc.fire(T, m) {
			// One retirement event per barrier sweep; the destination-level
			// count is the conservation invariant's side.
			var n int
			r.eachQueued(si, func(ev *event) { n += sc.retire(ev.pkt, holderOf(ev)) })
			if n > 0 {
				m.DropsByReason[ReasonLeft]++
				m.DestDropsByReason[ReasonLeft] += n
			}
		}
		if len(sc.ready) > 0 {
			// Board the earliest queued copy; with no live copy the joins
			// stay queued for a later barrier (or finish's missed count).
			var best *event
			r.eachQueued(si, func(ev *event) {
				if best == nil || ev.before(best) {
					best = ev
				}
			})
			if best != nil {
				sc.board(best.pkt, m, best.time, r.e.net)
			}
		}
	}
}

// eachQueued calls fn for every queued event carrying a packet of session
// si, across all lanes.
func (r *kernel) eachQueued(si int, fn func(*event)) {
	for _, ln := range r.lanes {
		for i := range ln.q {
			if ev := &ln.q[i]; ev.pkt != nil && ev.pkt.Session == si {
				fn(ev)
			}
		}
	}
}

// holderOf returns the node currently responsible for a queued event's
// packet: the receiver of an in-flight frame, the sender of a pending retry
// or give-up, the source of an unstarted session.
func holderOf(ev *event) int {
	if ev.kind == evReceive {
		return ev.to
	}
	return ev.from
}
