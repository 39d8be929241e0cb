package serve

// The server-side route walker behind the ROUTE op. A per-hop client plays
// ping-pong with the daemon: decode a frame, make one decision, re-encode,
// and pay a round trip per transmission. A ROUTE request hands the daemon
// the start frame once; the walker then runs the whole multicast walk
// in-process, applying each decision's forwards to in-flight packet copies
// under the simulation kernel's send and arrival rules, and
// streams each transmission back as a HOP message before summarizing every
// destination's fate in ROUTE_DONE.
//
// The walk reuses one decider's scratch across every hop — one frame
// decode, pooled packet copies, one encode arena — which is where the
// streamed mode's throughput comes from (BenchmarkRouteK120 vs
// BenchmarkPerHopRouteK120; E-X14 measures the same ratio end to end).
//
// Fidelity: the walker applies the simulation kernel's own forwarding
// rules — sim.CheckSend (invalid-send and hop-budget kills before the air)
// and (*sim.Packet).StripAt (strip-then-decide arrivals, first delivery
// wins) — and bills stranded copies and drop sentinels as the kernel does.
// It keeps full in-memory routing state between hops — perimeter watchdog
// fields and the previous hop survive, which the per-hop wire format cannot
// carry. Copies advance in FIFO order from a breadth-first queue, so
// arrivals are processed in nondecreasing hop order and the first delivery
// at a destination is a minimum-hop delivery, matching the engine for every
// non-redundant protocol (the E-X14 replay oracle pins this).

import (
	"errors"
	"fmt"
	"sort"

	"gmp/internal/sim"
	"gmp/internal/wire"
)

// Default walk limits, applied when Config leaves them zero.
const (
	// DefaultRouteBudget is the per-copy hop budget for ROUTE requests
	// whose body carries budget 0: the engine campaigns' usual TTL head
	// room for a K≤120 group on the paper's baseline field.
	DefaultRouteBudget = 256
	// DefaultRouteMaxSteps caps decisions per walk. A walk that exceeds it
	// is a protocol loop the hop budget failed to contain (or a hostile
	// request shaped to spin the worker); the server answers ERROR
	// CodeOverrun instead of burning the worker forever.
	DefaultRouteMaxSteps = 1 << 16
)

// ErrWalkOverrun reports a route walk that exceeded the decision ceiling.
var ErrWalkOverrun = errors.New("serve: route walk exceeded the step ceiling")

// walkItem is one in-flight packet copy waiting to arrive at node.
type walkItem struct {
	node int
	pkt  *sim.Packet
}

// reasonStatus maps an engine drop reason onto the wire's per-destination
// route status byte.
func reasonStatus(r sim.DropReason) byte {
	switch r {
	case sim.ReasonProtocol:
		return wire.RouteDropProtocol
	case sim.ReasonWatchdog:
		return wire.RouteDropWatchdog
	case sim.ReasonHopBudget:
		return wire.RouteDropHopBudget
	case sim.ReasonInvalidSend:
		return wire.RouteDropInvalid
	default:
		return wire.RouteDropStranded
	}
}

// walkRoute answers one ROUTE request: decode the start frame, resolve the
// destination set, and run the full multicast walk at the deciding source,
// streaming transmissions through emit and returning the summary.
//
// emit, when non-nil, is called once per copy event the decision plane
// produced — a transmission (To ≥ 0, Frame carrying the outgoing frame
// byte-identical to the per-hop DECIDE reply) or an explicit protocol drop
// (To = DropCopy/DropWatchdog sentinels). Engine-imposed kills (hop budget,
// invalid send, stranding) produce no HOP; they surface in the summary's
// outcomes. emit must fully consume hb before returning — the frame bytes
// alias the walker's arena. An emit returning false stops the stream (the
// session is saturated or gone) but never the walk: the summary's
// conservation over destinations stays exact regardless.
//
// Errors are request-mapping errors (ErrBadFrame/ErrBadOp/ErrUnservable)
// or ErrWalkOverrun; the caller maps them to wire error codes.
func (d *decider) walkRoute(protoName string, rb wire.RouteBody, emit func(hb wire.HopBody) bool) (*wire.RouteDoneBody, error) {
	p, err := d.protocol(protoName)
	if err != nil {
		return nil, err
	}
	if err := wire.DecodeInto(&d.frame, rb.Frame); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	f := &d.frame
	nw := d.dep.NW

	// Resolve the full wanted set first — the summary reports every
	// resolved destination, including those co-located with the source.
	if d.seen == nil {
		d.seen = make(map[int]bool, 64)
	}
	clear(d.seen)
	want := make([]int, 0, len(f.Dests))
	for _, loc := range f.Dests {
		id := nw.ClosestNode(loc)
		if d.seen[id] {
			continue // co-located subscribers merge (§2)
		}
		d.seen[id] = true
		want = append(want, id)
	}
	sort.Ints(want)

	// frameToPacket re-resolves under the engine's Start shape rules:
	// no anchor, no PERIMODE, sorted destinations, restamped locations,
	// source-co-located destinations stripped (delivered at hop 0).
	src, pkt, err := d.frameToPacket(wire.OpStart, f)
	if err != nil {
		return nil, err
	}

	budget := int(rb.Budget)
	if budget == 0 {
		budget = d.routeBudget
	}
	maxSteps := d.routeMaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultRouteMaxSteps
	}

	delivered := make(map[int]uint16, len(want))
	pending := make(map[int]byte) // first drop reason wins; settled at the end
	for _, id := range want {
		if id == src {
			delivered[id] = 0
		}
	}

	done := &wire.RouteDoneBody{}
	var seq uint32
	// bill defers a copy kill's per-destination charge into the pending
	// map, exactly like the engine's redundant-session settlement: a later
	// copy may still deliver, so delivered destinations shed their pending
	// reason when the walk settles.
	bill := func(dests []int, r sim.DropReason) {
		status := reasonStatus(r)
		for _, id := range dests {
			if _, seen := pending[id]; !seen {
				pending[id] = status
			}
		}
	}
	// event streams one copy event; a refused emit stops the stream but
	// never the walk.
	event := func(from, to int, hops int, r *fwdRec) error {
		if emit == nil {
			return nil
		}
		hb := byte(255)
		if hops < 255 {
			hb = byte(hops)
		}
		arena := d.arena[:0]
		arena, err := d.appendForwardFrame(arena, f.Source, f.Payload, hb, from, r)
		d.arena = arena
		if err != nil {
			return err
		}
		if !emit(wire.HopBody{Seq: seq, From: int32(from), To: int32(to), Frame: arena}) {
			emit = nil
		}
		seq++
		return nil
	}

	var queue []walkItem
	head := 0
	// step runs one decision at node on pkt and applies its forwards:
	// explicit drop sentinels kill with their reasons; transmissions pass
	// sim.CheckSend, then are enqueued as fresh pooled copies.
	step := func(op byte, node int, pkt *sim.Packet, pooled bool) error {
		if int(done.Decisions) >= maxSteps {
			return ErrWalkOverrun
		}
		recs, hit := d.run(p, protoName, op, node, pkt)
		done.Decisions++
		if hit {
			done.CacheHits++
		}
		if len(recs) == 0 {
			bill(pkt.Dests, sim.ReasonStranded)
			if pooled && hit {
				sim.PutPacket(pkt)
			}
			return nil
		}
		for i := range recs {
			r := &recs[i]
			hops := pkt.Hops + 1
			if reason, ok := sim.SentinelReason(r.To); ok {
				// Per-hop replies encode drop frames with the bumped hop
				// count (recsToReplies bumps once for the whole list); the
				// stream matches byte for byte.
				bill(r.Dests, reason)
				if err := event(node, r.To, hops, r); err != nil {
					return err
				}
				continue
			}
			if reason, ok := sim.CheckSend(nw, node, r.To, hops, budget); !ok {
				bill(r.Dests, reason)
				continue // killed before the air
			}
			if err := event(node, r.To, hops, r); err != nil {
				return err
			}
			done.Hops++
			q := sim.GetPacket()
			q.Dests = append(q.Dests, r.Dests...)
			q.Locs = append(q.Locs, r.Locs...)
			q.Hops = hops
			q.Perimeter = r.Perimeter
			if r.Perimeter {
				q.Peri = r.Peri
			}
			q.Anchor = r.Anchor
			queue = append(queue, walkItem{node: r.To, pkt: q})
		}
		// A cache hit never showed pkt to a handler, and cached records
		// alias nothing of it — a pooled copy can be recycled.
		if pooled && hit {
			sim.PutPacket(pkt)
		}
		return nil
	}

	if pkt != nil { // nil: every destination resolved to the source
		// The start packet is decoder scratch, never pooled.
		if err := step(wire.OpStart, src, pkt, false); err != nil {
			return nil, err
		}
	}
	for head < len(queue) {
		it := queue[head]
		queue[head] = walkItem{}
		head++
		// Arrive: strip the node (first delivery wins), then decide if work
		// remains.
		q := it.pkt
		if q.StripAt(it.node) > 0 {
			if _, dup := delivered[it.node]; !dup {
				delivered[it.node] = uint16(min(q.Hops, 0xFFFF))
			}
		}
		if len(q.Dests) == 0 {
			// Fully delivered; this copy was never shown to a handler, so
			// its storage goes back to the pool for the next hop's clone.
			sim.PutPacket(q)
			continue
		}
		if err := step(wire.OpDecide, it.node, q, true); err != nil {
			return nil, err
		}
	}

	// Settle: delivered wins over any pending drop reason (another copy's
	// death never un-delivers a destination).
	done.Outcomes = make([]wire.DestOutcome, 0, len(want))
	for _, id := range want {
		o := wire.DestOutcome{Node: int32(id), Loc: nw.Pos(id)}
		if h, ok := delivered[id]; ok {
			o.Status, o.Hops = wire.RouteDelivered, h
		} else if status, ok := pending[id]; ok {
			o.Status = status
		} else {
			// Every copy either delivers or is billed when it dies; a
			// destination with neither is a walker conservation bug.
			return nil, fmt.Errorf("%w: destination %d neither delivered nor dropped", ErrFrameEncode, id)
		}
		done.Outcomes = append(done.Outcomes, o)
	}
	return done, nil
}
