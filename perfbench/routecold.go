package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gmp/internal/routing"
	"gmp/internal/serve"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// route-cold: streamed ROUTE requests with the HOP stream on, each to K
// fresh random destinations given as exact node positions, so almost every
// decision misses the daemon's memo cache and a route costs its rrSTR
// builds.

const (
	routeK       = 120
	routeReplays = 3  // routes checked against an engine replay
	routeTraced  = 20 // routes replayed with a traced GMP handler
	routeWarmup  = 4  // routes walked in set-up
)

var routeLoad = gmpdLoad{
	lo:      20,
	hi:      300,
	limit:   250 * time.Millisecond,
	timeout: 3 * time.Second,
	window:  1,
}

func runRouteCold(opt options, rep *report) error {
	return runGmpd(opt, rep, routeLoad, func() gmpdWorkload { return &routeCold{seed: opt.seed} })
}

// routeDone is one answered route.
type routeDone struct {
	idx  int64
	done wire.RouteDoneBody
}

type routeCold struct {
	seed int64
	d    *daemon
	next atomic.Int64

	mu    sync.Mutex
	ids   map[uint64]int64 // request ID → route index
	dones []routeDone
	bad   []string
}

// fill warms the daemon up with routeWarmup routes from their own seed
// stream, so the measured routes stay fresh to its cache.
func (r *routeCold) fill(d *daemon) error {
	r.d = d
	r.ids = map[uint64]int64{}
	c, err := serve.Dial(d.addr, gmpdProto, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	nw := d.dep.NW
	for w := 0; w < routeWarmup; w++ {
		perm := seeded(r.seed, streamFresh, int64(w)).Perm(nw.Len())
		f := &wire.Frame{Source: nw.Pos(perm[0]), NextHop: nw.Pos(perm[0])}
		for _, id := range perm[1 : 1+routeK] {
			f.Dests = append(f.Dests, nw.Pos(id))
		}
		frame, err := wire.Encode(f, 0)
		if err != nil {
			return err
		}
		rep, err := c.Route(wire.RouteBody{Frame: frame}, nil)
		if err != nil {
			return err
		}
		if rep.Kind != wire.MsgRouteDone {
			return fmt.Errorf("warm-up route %d answered %s", w, wire.MsgName(rep.Kind))
		}
	}
	return nil
}

// task returns route idx's source and destination nodes.
func (r *routeCold) task(idx int64) (int, []int) {
	rng := seeded(r.seed, streamRoutes, idx)
	perm := rng.Perm(r.d.dep.NW.Len())
	return perm[0], perm[1 : 1+routeK]
}

func (r *routeCold) build(id uint64, _ int) (byte, []byte) {
	idx := r.next.Add(1) - 1
	src, dests := r.task(idx)
	nw := r.d.dep.NW
	f := &wire.Frame{Source: nw.Pos(src), NextHop: nw.Pos(src)}
	for _, dst := range dests {
		f.Dests = append(f.Dests, nw.Pos(dst))
	}
	frame, err := wire.Encode(f, 0)
	if err != nil {
		panic(fmt.Sprintf("route frame does not encode: %v", err)) // K is fixed below the header budget
	}
	r.mu.Lock()
	r.ids[id] = idx
	r.mu.Unlock()
	return wire.MsgRoute, wire.EncodeRoute(wire.RouteBody{Frame: frame})
}

func (r *routeCold) answer(id uint64, m wire.Msg, decoded any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.ids[id]
	delete(r.ids, id)
	if m.Type != wire.MsgRouteDone {
		return
	}
	done := decoded.(wire.RouteDoneBody)
	// Every destination is accounted for: delivered or dropped with a reason.
	delivered, dropped := 0, 0
	for _, o := range done.Outcomes {
		if o.Status == wire.RouteDelivered {
			delivered++
		} else if _, ok := statusDropReason(o.Status); ok {
			dropped++
		}
	}
	if delivered+dropped != routeK || len(done.Outcomes) != routeK {
		r.bad = append(r.bad, fmt.Sprintf("route %d: %d delivered + %d dropped of %d outcomes, want %d",
			idx, delivered, dropped, len(done.Outcomes), routeK))
	}
	r.dones = append(r.dones, routeDone{idx: idx, done: done})
}

// replay runs route idx on the simulation engine with a fresh GMP handler
// (wrapped when t is non-nil) under the daemon's default hop budget.
func (r *routeCold) replay(idx int64, t *tracer, builds *buildRecorder) (sim.TaskMetrics, error) {
	dep := r.d.dep
	en := sim.NewEngine(dep.NW, sim.DefaultRadioParams(), serve.DefaultRouteBudget)
	en.SetViews(view.NewOracle(dep.NW, dep.PG))
	p, err := routing.Make(gmpdProto, routing.Ctx{})
	if err != nil {
		return sim.TaskMetrics{}, err
	}
	var id int32 = -1
	if t != nil {
		id = t.open("sim.run", -1, idx)
		p = traceHandler(p, gmpdProto, t, id, idx, builds)
	}
	src, dests := r.task(idx)
	m := en.RunTask(p, src, dests)
	if t != nil {
		t.close(id)
	}
	return m, nil
}

// check compares a sample of streamed routes with engine replays: hops,
// per-destination outcomes and drop reasons must match exactly.
func (r *routeCold) check(d *daemon, rep *report) error {
	r.mu.Lock()
	for _, b := range r.bad {
		rep.check(false, "%s", b)
	}
	dones := append([]routeDone(nil), r.dones...)
	r.mu.Unlock()
	rep.check(len(dones) >= routeReplays, "only %d routes answered", len(dones))
	sort.Slice(dones, func(i, j int) bool { return dones[i].idx < dones[j].idx })
	for _, rd := range dones[:min(routeReplays, len(dones))] {
		m, err := r.replay(rd.idx, nil, nil)
		if err != nil {
			return err
		}
		rep.check(int(rd.done.Hops) == m.Transmissions, "route %d: %d hops streamed, engine %d", rd.idx, rd.done.Hops, m.Transmissions)
		var drops [sim.NumDropReasons]int
		delivered := 0
		for _, o := range rd.done.Outcomes {
			if o.Status != wire.RouteDelivered {
				reason, _ := statusDropReason(o.Status)
				drops[reason]++
				continue
			}
			delivered++
			want, ok := m.Delivered[int(o.Node)]
			rep.check(ok && want == int(o.Hops), "route %d: dest %d delivered at %d hops, engine %d (%t)", rd.idx, o.Node, o.Hops, want, ok)
		}
		rep.check(delivered == len(m.Delivered), "route %d: %d delivered, engine %d", rd.idx, delivered, len(m.Delivered))
		rep.check(drops == m.DestDropsByReason, "route %d: drops by reason %v, engine %v", rd.idx, drops, m.DestDropsByReason)
	}
	return nil
}

// layers attributes a route's latency: the daemon's per-route hop and
// decision counts from the traced phase's summaries, and the decision time
// of the same routes replayed on the engine with a traced GMP handler.
func (r *routeCold) layers(d *daemon, rep *report, t *tracer, traced *phase, plainP50 float64) error {
	r.mu.Lock()
	dones := append([]routeDone(nil), r.dones...)
	r.mu.Unlock()
	sort.Slice(dones, func(i, j int) bool { return dones[i].idx < dones[j].idx })
	dones = dones[len(dones)-min(len(dones), traced.outcomes[outOK]):] // the traced phase's routes
	var hops, decisions int64
	for _, rd := range dones {
		hops += int64(rd.done.Hops)
		decisions += int64(rd.done.Decisions)
	}
	if len(dones) == 0 {
		return fmt.Errorf("no route answered in the traced phase")
	}
	rep.set("serve.hops_per_route", float64(hops)/float64(len(dones)))
	rep.set("serve.decisions_per_route", float64(decisions)/float64(len(dones)))

	replay := newTracer()
	builds := &buildRecorder{}
	n := min(routeTraced, len(dones))
	for _, rd := range dones[:n] {
		if _, err := r.replay(rd.idx, replay, builds); err != nil {
			return err
		}
	}
	lt := replay.layers()
	setRoutingLayers(rep, replay, lt)
	decideMs := 0.0
	if l := lt["routing."+gmpdProto]; l != nil {
		decideMs = float64(l.busy.Nanoseconds()) / 1e6 / float64(n)
	}
	rep.set("serve.decide_ms_per_route", decideMs)
	rep.set("serve.non_decide_ms_per_route", plainP50-decideMs)
	rep.set("steiner.rrstr_us", builds.replayUS())
	return nil
}

// statusDropReason maps a ROUTE_DONE drop status to the engine's reason.
func statusDropReason(status byte) (sim.DropReason, bool) {
	switch status {
	case wire.RouteDropProtocol:
		return sim.ReasonProtocol, true
	case wire.RouteDropWatchdog:
		return sim.ReasonWatchdog, true
	case wire.RouteDropHopBudget:
		return sim.ReasonHopBudget, true
	case wire.RouteDropInvalid:
		return sim.ReasonInvalidSend, true
	case wire.RouteDropStranded:
		return sim.ReasonStranded, true
	}
	return 0, false
}
