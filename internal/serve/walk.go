package serve

// The server-side route walker behind the ROUTE op. A per-hop client pays a
// round trip per transmission; a ROUTE hands the daemon the start frame
// once, and the daemon runs the whole multicast walk in-process, streams
// each copy event back as a HOP and summarizes every destination's fate in
// ROUTE_DONE.
//
// The walker is a kernel client: a ROUTE is one RunTask on a fault-free
// engine the decider owns (default radio, the request's hop budget, the
// decider's oracle views), with routeHandler as the protocol. Send rules,
// strip-on-arrive, drop billing and first-reason-wins settlement are the
// kernel's own, so a ROUTE_DONE is by construction the engine's result for
// the same task, for every servable protocol — MCFR included. HOPs come in
// kernel dispatch order. A per-hop DECIDE walk of a non-redundant protocol
// is the same walk (its frames carry the previous hop, and oracle views
// never arm the watchdog); redundant protocols walk only here. The engine
// is never sharded: it runs inline on the worker goroutine, so a panicking
// protocol unwinds into the server's per-request recover and the HOP order
// is deterministic. Reusing the decider's scratch and the engine's lanes
// across walks is where the streamed mode's throughput comes from
// (BenchmarkRouteK120 vs BenchmarkPerHopRouteK120).

import (
	"errors"
	"fmt"
	"sort"

	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
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

// routeDrops pairs each engine drop reason a ROUTE summary reports with its
// per-destination wire status. Every other reason (link loss, crashes, ARQ
// and leaves, which a walk without faults or churn never bills) is
// reported as stranded.
var routeDrops = [...]struct {
	reason sim.DropReason
	status byte
}{
	{sim.ReasonProtocol, wire.RouteDropProtocol},
	{sim.ReasonWatchdog, wire.RouteDropWatchdog},
	{sim.ReasonHopBudget, wire.RouteDropHopBudget},
	{sim.ReasonInvalidSend, wire.RouteDropInvalid},
	{sim.ReasonStranded, wire.RouteDropStranded},
}

// ReasonStatus maps an engine drop reason onto the wire's per-destination
// route status byte.
func ReasonStatus(r sim.DropReason) byte {
	for _, d := range routeDrops {
		if d.reason == r {
			return d.status
		}
	}
	return wire.RouteDropStranded
}

// StatusReason maps a ROUTE drop status back onto the engine's drop
// reason; ok is false for a status that is not a drop.
func StatusReason(status byte) (r sim.DropReason, ok bool) {
	for _, d := range routeDrops {
		if d.status == status {
			return d.reason, true
		}
	}
	return 0, false
}

// walkRoute answers one ROUTE request: decode the start frame, resolve the
// destination set, run the task on the decider's engine, and summarize
// each destination from the kernel's metrics.
//
// emit, when non-nil, is called once per copy event the decision plane
// produced — a transmission (To ≥ 0, Frame carrying the outgoing frame
// byte-identical to the per-hop DECIDE reply) or an explicit protocol drop
// (To = DropCopy/DropWatchdog sentinels). Engine-imposed kills (hop budget,
// invalid send, stranding) produce no HOP; they surface in the outcomes.
// emit must fully consume hb before returning — the frame bytes alias the
// decider's arena. An emit returning false stops the stream but never the
// walk.
//
// Errors are request-mapping errors (ErrBadFrame/ErrBadOp/ErrUnservable),
// frame-encode errors, or ErrWalkOverrun.
func (d *decider) walkRoute(protoName string, rb wire.RouteBody, emit func(hb wire.HopBody) bool) (*wire.RouteDoneBody, error) {
	p, err := d.protocol(protoName)
	if err != nil {
		return nil, err
	}
	if err := wire.DecodeInto(&d.frame, rb.Frame); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if d.frame.Hops != 0 {
		return nil, fmt.Errorf("%w: hop count %d on a route request", ErrBadOp, d.frame.Hops)
	}
	// frameToPacket leaves the resolved destinations, minus the source,
	// sorted in d.ids; d.seen[src] marks a destination at the source itself.
	src, _, err := d.frameToPacket(wire.OpStart, &d.frame)
	if err != nil {
		return nil, err
	}
	dests := d.ids
	if d.seen[src] {
		dests = append(dests, src)
		sort.Ints(dests)
	}
	budget := int(rb.Budget)
	if budget == 0 {
		budget = d.routeBudget
	}
	if d.engine == nil || d.engine.MaxHops() != budget {
		d.engine = sim.NewEngine(d.dep.NW, sim.DefaultRadioParams(), budget)
		d.engine.SetViews(d.views)
	}
	h := &d.walk
	*h = routeHandler{d: d, p: p, name: protoName, emit: emit}
	m := d.engine.RunTask(h, src, dests)
	if h.err != nil {
		return nil, h.err
	}
	done := h.done
	done.Hops = uint32(m.Transmissions)
	done.Outcomes = make([]wire.DestOutcome, 0, len(dests))
	for _, id := range dests {
		o := wire.DestOutcome{Node: int32(id), Loc: d.dep.NW.Pos(id)}
		if hops, ok := m.Delivered[id]; ok {
			o.Status, o.Hops = wire.RouteDelivered, uint16(min(hops, 0xFFFF))
		} else if r, ok := m.Dropped[id]; ok {
			o.Status = ReasonStatus(r)
		} else {
			return nil, fmt.Errorf("%w: destination %d neither delivered nor dropped", ErrFrameEncode, id)
		}
		done.Outcomes = append(done.Outcomes, o)
	}
	return &done, nil
}

// routeHandler is the sim.Handler a ROUTE walk runs: each decision is the
// decider's memo-cached run, whose forwards go to the kernel as they are
// (it copies each on send), and its copy events stream out as HOPs. It
// lives on the decider, keeping its scratch.
type routeHandler struct {
	d    *decider
	p    routing.Protocol
	name string
	emit func(wire.HopBody) bool
	done wire.RouteDoneBody // Decisions and CacheHits
	seq  uint32             // next HOP's sequence number
	// err is the walk's first failure; from then on every decision strands
	// its copy, so the kernel drains quickly.
	err error
}

// Start implements sim.Handler.
func (h *routeHandler) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return h.decide(wire.OpStart, v.Self(), pkt)
}

// Decide implements sim.Handler.
func (h *routeHandler) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return h.decide(wire.OpDecide, v.Self(), pkt)
}

// RedundantCopies implements sim.RedundantHandler with the wrapped
// protocol's answer.
func (h *routeHandler) RedundantCopies() bool {
	rh, ok := h.p.(sim.RedundantHandler)
	return ok && rh.RedundantCopies()
}

// decide runs one decision at node and streams a HOP for each drop
// sentinel and each send sim.CheckSend lets onto the air — exactly the
// copy events the kernel makes of the returned forwards. A refused emit
// stops the stream but never the walk.
func (h *routeHandler) decide(op byte, node int, pkt *sim.Packet) []sim.Forward {
	if h.err != nil {
		return nil
	}
	if int(h.done.Decisions) >= h.d.routeMaxSteps {
		h.err = ErrWalkOverrun
		return nil
	}
	fwds, hit := h.d.run(h.p, h.name, op, node, pkt)
	h.done.Decisions++
	if hit {
		h.done.CacheHits++
	}
	hops := pkt.Hops + 1
	for i := range fwds {
		f := &fwds[i]
		_, dropped := sim.SentinelReason(f.To)
		if _, ok := sim.CheckSend(h.d.dep.NW, node, f.To, hops, h.d.engine.MaxHops()); h.emit != nil && (dropped || ok) {
			// Per-hop replies encode drop frames with the bumped hop count
			// too; the stream matches them byte for byte.
			h.d.arena, h.err = h.d.appendForwardFrame(h.d.arena[:0], h.d.frame.Source,
				h.d.frame.Payload, byte(min(hops, 255)), node, f)
			if h.err != nil {
				return nil
			}
			if !h.emit(wire.HopBody{Seq: h.seq, From: int32(node), To: int32(f.To), Frame: h.d.arena}) {
				h.emit = nil
			}
			h.seq++
		}
	}
	return fwds
}
