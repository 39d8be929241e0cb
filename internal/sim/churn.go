package sim

import (
	"fmt"
	"math"
	"sort"

	"gmp/internal/geom"
	"gmp/internal/network"
)

// Motion is a true-position stream: the physical positions of all nodes at
// virtual time t (seconds since the run began). The engine samples it at
// every transmission to decide whether two nominally adjacent nodes have
// drifted out of radio range — advertised (beacon-table) positions are a
// separate, possibly stale concern that lives in the view provider. The
// mobility package's samplers convert a waypoint model into this shape; the
// beacon package's PositionsAt has the identical underlying type.
type Motion func(t float64) []geom.Point

// Membership schedules one group-membership change inside a run: node joins
// (or leaves) the destination set of the given session at virtual time At.
//
// Changes take effect at the first window barrier at or after At (see
// shard_churn.go). A join is spliced into the header of the session's
// earliest queued copy — the wire format already carries the destination
// list, so stateless cores re-plan around the newcomer with no extra
// machinery. A join for a node that is already a destination (or that
// previously left) is counted as missed, not spliced.
//
// A leave retires the destination from every queued copy: it is stripped
// from the header and billed as ReasonLeft, which keeps the
// delivered+dropped conservation invariant exact. A node that left cannot
// rejoin within the same session.
type Membership struct {
	// Session indexes the script session the change applies to (0 for
	// RunTask). Sessions beyond the script are a programming error: RunScript
	// panics.
	Session int
	// Node is the joining/leaving node ID.
	Node int
	// At is the virtual time of the change in seconds (absolute scheduler
	// time, the same clock Session.Start uses).
	At float64
}

// ChurnPlan makes time-varying membership and position first-class in the
// engine: scheduled destination joins and leaves, plus an optional Motion
// stream that lets true positions drift away from the (static) deployment
// the routing state was built from.
//
// The zero plan is a strict no-op: no events, no motion sampling, and runs
// are byte-identical to an engine that never had a plan installed.
type ChurnPlan struct {
	// Joins and Leaves are the scheduled membership changes, in any order.
	Joins  []Membership
	Leaves []Membership
	// Motion, when non-nil, is sampled at every transmission: a frame between
	// nodes whose true positions are farther apart than the radio range is
	// lost on the air (billed as ReasonLinkLoss, retried under ARQ like any
	// other loss). It must cover every node of the engine's network.
	Motion Motion
}

// Active reports whether the plan does anything at all.
func (p ChurnPlan) Active() bool {
	return len(p.Joins) > 0 || len(p.Leaves) > 0 || p.Motion != nil
}

// hasEvents reports whether the plan schedules membership changes.
func (p ChurnPlan) hasEvents() bool { return len(p.Joins) > 0 || len(p.Leaves) > 0 }

// Validate checks the plan against a network of n nodes.
func (p ChurnPlan) Validate(n int) error {
	check := func(kind string, ms []Membership) error {
		for _, m := range ms {
			if m.Node < 0 || m.Node >= n {
				return fmt.Errorf("sim: churn %s node %d out of range [0,%d)", kind, m.Node, n)
			}
			if m.Session < 0 {
				return fmt.Errorf("sim: churn %s session %d negative", kind, m.Session)
			}
			if math.IsNaN(m.At) || math.IsInf(m.At, 0) || m.At < 0 {
				return fmt.Errorf("sim: churn %s time %v not a finite non-negative number", kind, m.At)
			}
		}
		return nil
	}
	if err := check("join", p.Joins); err != nil {
		return err
	}
	if err := check("leave", p.Leaves); err != nil {
		return err
	}
	if p.Motion != nil {
		if got := len(p.Motion(0)); got != n {
			return fmt.Errorf("sim: churn motion covers %d nodes, network has %d", got, n)
		}
	}
	return nil
}

// SetChurn installs a churn plan for subsequent runs. The zero plan restores
// the static-membership, static-position engine exactly (a strict no-op).
func (e *Engine) SetChurn(p ChurnPlan) error {
	if err := p.Validate(e.net.Len()); err != nil {
		return err
	}
	e.churn = p
	return nil
}

// churnEvent is one membership change in a session's merged, time-ordered
// event stream.
type churnEvent struct {
	at   float64
	join bool
	node int
}

// sessionChurn is one session's churn bookkeeping. It exists only for
// sessions the installed plan schedules events for; everything else keeps a
// nil pointer and the zero-plan fast path.
type sessionChurn struct {
	src    int
	events []churnEvent // sorted by (at, leaves-before-joins, node)
	next   int          // first unfired event
	// ready holds join nodes whose events fired but that have not yet been
	// boarded onto a packet.
	ready []int
	// member marks nodes that are, or are scheduled to become, destinations
	// of this session (seeded from the task's destination set).
	member map[int]bool
	// left marks nodes whose leave event fired; they are retired from any
	// header they still ride and can never rejoin this session.
	left map[int]bool
	// retired marks left destinations already billed as ReasonLeft, so
	// duplicate copies (geocast) cannot double-count the retirement.
	retired map[int]bool
}

// newSessionChurn builds session s's bookkeeping from the plan's events, or
// returns nil when the plan schedules nothing for it.
func (p ChurnPlan) newSessionChurn(session, src int, dests []int) *sessionChurn {
	var events []churnEvent
	for _, m := range p.Leaves {
		if m.Session == session {
			events = append(events, churnEvent{at: m.At, join: false, node: m.Node})
		}
	}
	for _, m := range p.Joins {
		if m.Session == session {
			events = append(events, churnEvent{at: m.At, join: true, node: m.Node})
		}
	}
	if len(events) == 0 {
		return nil
	}
	// Deterministic order: time, then leaves before joins (a same-instant
	// leave wins over a join of the same node), then node ID.
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		if events[a].join != events[b].join {
			return !events[a].join
		}
		return events[a].node < events[b].node
	})
	sc := &sessionChurn{
		src:    src,
		events: events,
		member: make(map[int]bool, len(dests)),
		left:   make(map[int]bool),
	}
	for _, d := range dests {
		sc.member[d] = true
	}
	return sc
}

// fire advances the session's churn events to time t: a leave marks its
// node departed, a join of a fresh node queues it for boarding, and a join
// of a member or departed node is counted missed in m. Reports whether any
// leave fired.
func (sc *sessionChurn) fire(t float64, m *SessionMetrics) (leaves bool) {
	for sc.next < len(sc.events) && sc.events[sc.next].at <= t {
		ev := sc.events[sc.next]
		sc.next++
		if !ev.join {
			sc.left[ev.node] = true
			leaves = true
			continue
		}
		if sc.member[ev.node] || sc.left[ev.node] {
			m.JoinsMissed++
			continue
		}
		sc.member[ev.node] = true
		sc.ready = append(sc.ready, ev.node)
	}
	return leaves
}

// retire strips every departed destination (and its header location) from
// pkt and returns how many it retired for the first time — duplicate copies
// carrying the same destination retire it once. Anchor-steered protocols
// (LGS/LGK) keep a destination ID in pkt.Anchor and look up its header
// location every relay hop; retiring that destination would leave the
// anchor dangling, so the copy is re-anchored at holder, the node holding
// the packet — the handler sees itself as the subtree root and
// re-partitions around the departure.
func (sc *sessionChurn) retire(pkt *Packet, holder int) int {
	var n int
	kept := pkt.Dests[:0]
	keptL := pkt.Locs[:0]
	for i, d := range pkt.Dests {
		if sc.left[d] {
			if !sc.retired[d] {
				if sc.retired == nil {
					sc.retired = make(map[int]bool)
				}
				sc.retired[d] = true
				n++
			}
			continue
		}
		kept = append(kept, d)
		keptL = append(keptL, pkt.Locs[i])
	}
	pkt.Dests = kept
	pkt.Locs = keptL
	if pkt.Anchor >= 0 && sc.left[pkt.Anchor] {
		pkt.Anchor = holder
	}
	return n
}

// board splices the queued joins aboard pkt at time t, so the next decision
// re-plans around the newcomers. A join whose leave overtook it before any
// packet passed by is counted missed; the source joining its own group is
// trivially delivered where the task originated, at hop 0.
func (sc *sessionChurn) board(pkt *Packet, m *SessionMetrics, t float64, nw *network.Network) {
	for _, j := range sc.ready {
		if sc.left[j] {
			m.JoinsMissed++
			continue
		}
		m.DestCount++
		m.JoinsSpliced++
		if j == sc.src {
			m.Delivered[j] = 0
			m.DeliveredAt[j] = t
			continue
		}
		pkt.Dests = append(pkt.Dests, j)
		pkt.Locs = append(pkt.Locs, nw.Pos(j))
	}
	sc.ready = sc.ready[:0]
}

// finish counts joins that never fired, or fired but never found a packet
// to board, as missed — so every scheduled join lands in exactly one of
// JoinsSpliced/JoinsMissed.
func (sc *sessionChurn) finish(m *SessionMetrics) {
	for ; sc.next < len(sc.events); sc.next++ {
		if sc.events[sc.next].join {
			m.JoinsMissed++
		}
	}
	m.JoinsMissed += len(sc.ready)
	sc.ready = nil
}

// motionInRange reports whether from and to are within radio range under the
// plan's true-position stream at time t.
func (e *Engine) motionInRange(from, to int, t float64) bool {
	pts := e.churn.Motion(t)
	r := e.net.Range()
	return pts[from].Dist2(pts[to]) <= r*r
}
