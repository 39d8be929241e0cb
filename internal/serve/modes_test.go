package serve

// The differential oracle across execution modes. One task set is walked
// five ways — the simulation kernel at 1, 2 and 4 workers, the daemon's
// streamed ROUTE walker, and the per-hop walker Client.RoutePerHop runs,
// answered DECIDE by DECIDE — and every way must agree on the transmission
// total and on each destination's delivered hop count. The per-hop walk is
// what holds the wire format to the engine: a frame that drops any state a
// decision reads (the perimeter walk's previous hop, say) shows up here as
// a divergent walk. Redundant protocols walk only by ROUTE, so for them the
// per-hop walk must end in the typed refusal instead. Every kernel's traced
// hops must also keep the protocol's declared progress rule
// (routing.AuditProgress).

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// walkResult is what every execution mode reports about one task.
type walkResult struct {
	tx        int
	delivered map[int]int // destination → hop count at delivery
}

// diff describes the first difference between two results, or "".
func (a walkResult) diff(b walkResult) string {
	if a.tx != b.tx {
		return fmt.Sprintf("%d transmissions vs %d", a.tx, b.tx)
	}
	if len(a.delivered) != len(b.delivered) {
		return fmt.Sprintf("%d destinations delivered vs %d", len(a.delivered), len(b.delivered))
	}
	for id, h := range a.delivered {
		if g, ok := b.delivered[id]; !ok || g != h {
			return fmt.Sprintf("destination %d delivered at %d hops vs %d (delivered %v)", id, h, g, ok)
		}
	}
	return ""
}

// perHop walks a task with the per-hop walker Client.RoutePerHop runs,
// answering its DECIDEs from d directly, and reads the result from the HOP
// stream: every HOP to a node is a transmission, and a destination is
// delivered when a frame listing it arrives at it.
func perHop(d *decider, proto string, start []byte, budget int) (walkResult, error) {
	nw := d.dep.NW
	res := walkResult{delivered: map[int]int{}}
	var bad error
	hop := func(hb wire.HopBody) {
		if hb.To < 0 {
			return // a drop sentinel
		}
		out, err := wire.Decode(hb.Frame)
		if err != nil {
			bad = err
			return
		}
		res.tx++
		to := int(hb.To)
		for _, loc := range out.Dests {
			if _, done := res.delivered[to]; !done && nw.ClosestNode(loc) == to {
				res.delivered[to] = int(out.Hops)
			}
		}
	}
	do := func(body wire.DecideBody) (Reply, error) {
		reps, err := d.decide(proto, body)
		return Reply{Kind: wire.MsgForwards, Forwards: cloneReplies(reps)}, err
	}
	rep, err := walkPerHop(wire.RouteBody{Budget: uint16(budget), Frame: start}, hop, do)
	switch {
	case err != nil:
		return res, err
	case bad != nil:
		return res, bad
	case rep.Kind != wire.MsgRouteDone || int(rep.Done.Hops) != res.tx:
		return res, fmt.Errorf("walk answered %s with %d hops for %d HOPs to nodes",
			wire.MsgName(rep.Kind), rep.Done.Hops, res.tx)
	}
	return res, nil
}

func TestExecutionModesAgree(t *testing.T) {
	const budget = 100
	fields := []struct {
		name string
		dep  *Deployment
	}{
		{"test-field", testDeployment(t)},
		{"paper-field", benchDeployment(t)},
	}
	for _, fd := range fields {
		dep := fd.dep
		for _, proto := range servableProtocols() {
			t.Run(fd.name+"/"+proto, func(t *testing.T) {
				var kernels []*sim.Engine
				for _, workers := range []int{1, 2, 4} {
					en := sim.NewEngine(dep.NW, sim.DefaultRadioParams(), budget)
					en.SetViews(view.NewOracle(dep.NW, dep.PG))
					if err := en.SetSharding(sim.ShardConfig{Shards: workers,
						Window: sim.Lookahead(sim.DefaultRadioParams(), sim.ARQConfig{})}); err != nil {
						t.Fatal(err)
					}
					kernels = append(kernels, en)
				}
				h, err := routing.Make(proto, routing.Ctx{Lambda: 0.5, LambdaSet: true})
				if err != nil {
					t.Fatal(err)
				}
				spec, _ := routing.Lookup(proto)
				var events []sim.TraceEvent
				for _, en := range kernels {
					en.SetTracer(func(ev sim.TraceEvent) { events = append(events, ev) })
				}
				d := newDecider(dep, 0.5, 0)
				d.routeBudget = budget
				servable := CheckPerHop(proto) == nil
				for _, k := range []int{12, 32} {
					for seed := int64(1); seed <= 40; seed++ {
						src, dests := pickNodes(rand.New(rand.NewSource(seed)), dep.NW.Len(), k)
						start := routeFrame(t, dep, src, dests)
						fail := func(mode, diff string) {
							t.Fatalf("k %d seed %d: %s differs from the 1-worker kernel: %s", k, seed, mode, diff)
						}

						var want walkResult
						for i, en := range kernels {
							events = events[:0]
							m := en.RunTask(h, src, dests)
							if err := routing.AuditProgress(dep.NW, spec.Progress, events); err != nil {
								t.Fatalf("k %d seed %d, the %d-worker kernel: %v", k, seed, en.Sharding().Shards, err)
							}
							got := walkResult{tx: m.Transmissions, delivered: m.Delivered}
							if i == 0 {
								want = got
							} else if diff := want.diff(got); diff != "" {
								fail(fmt.Sprintf("the %d-worker kernel", en.Sharding().Shards), diff)
							}
						}

						done, err := d.walkRoute(proto, wire.RouteBody{Frame: start}, nil)
						if err != nil {
							t.Fatalf("k %d seed %d: walk: %v", k, seed, err)
						}
						walked := walkResult{tx: int(done.Hops), delivered: map[int]int{}}
						for _, o := range done.Outcomes {
							if o.Status == wire.RouteDelivered {
								walked.delivered[int(o.Node)] = int(o.Hops)
							}
						}
						if diff := want.diff(walked); diff != "" {
							fail("the streamed walk", diff)
						}

						got, err := perHop(d, proto, start, budget)
						if !servable {
							if !errors.Is(err, ErrUnservable) {
								t.Fatalf("k %d seed %d: per-hop walk of a redundant protocol answered %v, want ErrUnservable", k, seed, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("k %d seed %d: per-hop walk: %v", k, seed, err)
						}
						if diff := want.diff(got); diff != "" {
							fail("the per-hop walk", diff)
						}
					}
				}
			})
		}
	}
}
