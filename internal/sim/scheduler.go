// Package sim is the discrete-event simulation kernel that replaces ns-2.27
// in this reproduction. It provides a virtual clock with an event queue, a
// radio/energy model parameterized by the paper's Table 1, and a packet
// delivery engine that accounts transmissions, per-destination hop counts and
// energy exactly as §5 measures them.
//
// The MAC layer is ideal (no contention or loss): every metric the paper
// reports — hops, energy, failed tasks — is a deterministic function of
// forwarding decisions and neighborhoods, so an 802.11 contention model would
// only add noise, not change the comparison (see DESIGN.md §3).
//
// One kernel (shard.go) applies every forwarding decision: one event lane
// per spatial tile, advanced in conservative time windows by a pool of
// workers (one by default, Engine.SetSharding for more). The output is
// byte-identical for any worker count (see DESIGN.md §2.4): each tile draws
// faults from its own stream, an exhausted ARQ link gives up in the
// sender's tile one timeout after the last failure, membership churn is
// applied to queued packets at window barriers, and trace events are
// buffered per tile and handed to the tracer in kernel order.
package sim

// eventKind discriminates the kernel's typed events. Events are values the
// kernel can inspect — to route them to lanes, and to let the churn barrier
// find and edit in-flight packets.
type eventKind uint8

const (
	// evStart begins a session at its source node.
	evStart eventKind = iota
	// evReceive resolves one frame's fate at its arrival time.
	evReceive
	// evRetransmit fires an ARQ retry at the sender.
	evRetransmit
	// evGiveUp fires the sender's final ARQ timeout — the only path to an
	// ARQ give-up: ban the link, offer the copy to the NackHandler, kill it
	// if no re-route salvages it.
	evGiveUp
	// evCrash and evRecover flip a node's radio state.
	evCrash
	evRecover
)

// event is one scheduled event. (time, tile, seq) is the kernel's strict
// total order: tile and seq identify the originating lane and its sequence
// counter at creation, both deterministic.
type event struct {
	time float64
	tile int32
	seq  int64
	kind eventKind

	from, to int
	attempt  int
	lost     bool
	pkt      *Packet
}

// before is the kernel's (time, tile, seq) order.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.tile != b.tile {
		return a.tile < b.tile
	}
	return a.seq < b.seq
}

// eventHeap is a min-heap of events in kernel order. It is hand-rolled
// rather than built on container/heap: the standard heap boxes every element
// into an interface{}, one allocation per Push, which a million-node event
// loop cannot afford. The order is strict — (tile, seq) is unique — so every
// pop returns the unique minimum (TestEventQueueMatchesContainerHeap checks
// this against container/heap on randomized workloads).
type eventHeap []event

func (q eventHeap) less(i, j int) bool { return q[i].before(&q[j]) }

func (q *eventHeap) push(e event) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

func (q *eventHeap) pop() event {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	e := h[n]
	h[n] = event{} // drop the packet reference
	*q = h[:n]
	if n > 0 {
		h[:n].down(0)
	}
	return e
}

func (q eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventHeap) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && q.less(r, l) {
			best = r
		}
		if !q.less(best, i) {
			return
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
}
