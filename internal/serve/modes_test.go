package serve

// The differential oracle across execution modes. One task set is walked
// five ways — the simulation kernel at 1, 2 and 4 workers, the daemon's
// streamed ROUTE walker, and a per-hop client replaying DECIDE answers frame
// by frame — and every way must agree on the transmission total and on each
// destination's delivered hop count. The per-hop replay is what holds the
// wire format to the engine: a frame that drops any state a decision reads
// (the perimeter walk's previous hop, say) shows up here as a divergent
// walk. Redundant protocols walk only by ROUTE, so for them the replay
// asserts the typed per-hop refusal instead.

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

// replayPerHop walks a task the way a per-hop client does: it holds the
// frontier of in-flight frames, asks d for one DECIDE per arrival, and
// applies the kernel's send rule to every forward in each answer. A
// destination is delivered when a frame listing it arrives at it.
func replayPerHop(t *testing.T, d *decider, proto string, start []byte, budget int) walkResult {
	t.Helper()
	nw := d.dep.NW
	res := walkResult{delivered: map[int]int{}}
	type inflight struct {
		op    byte
		frame []byte
	}
	queue := []inflight{{op: wire.OpStart, frame: start}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		in, err := wire.Decode(cur.frame)
		if err != nil {
			t.Fatal(err)
		}
		node := nw.ClosestNode(in.NextHop)
		reps, err := d.decide(proto, wire.DecideBody{Op: cur.op, Frame: cur.frame})
		if err != nil {
			t.Fatalf("decide at node %d: %v", node, err)
		}
		for _, r := range cloneReplies(reps) {
			out, err := wire.Decode(r.Frame)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sim.CheckSend(nw, node, int(r.To), int(out.Hops), budget); !ok {
				continue // a drop sentinel, or a send the kernel would kill
			}
			res.tx++
			to := int(r.To)
			for _, loc := range out.Dests {
				if _, done := res.delivered[to]; !done && nw.ClosestNode(loc) == to {
					res.delivered[to] = int(out.Hops)
				}
			}
			queue = append(queue, inflight{op: wire.OpDecide, frame: r.Frame})
		}
	}
	return res
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
				d := newDecider(dep, 0.5, 0)
				d.routeBudget = budget
				perHop := CheckPerHop(proto) == nil
				for _, k := range []int{12, 32} {
					for seed := int64(1); seed <= 40; seed++ {
						src, dests := pickNodes(rand.New(rand.NewSource(seed)), dep.NW.Len(), k)
						start := routeFrame(t, dep, src, dests)
						fail := func(mode, diff string) {
							t.Fatalf("k %d seed %d: %s differs from the 1-worker kernel: %s", k, seed, mode, diff)
						}

						var want walkResult
						for i, en := range kernels {
							m := en.RunTask(h, src, dests)
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

						if perHop {
							if diff := want.diff(replayPerHop(t, d, proto, start, budget)); diff != "" {
								fail("the per-hop DECIDE replay", diff)
							}
							continue
						}
						if _, err := d.decide(proto, wire.DecideBody{Op: wire.OpStart, Frame: start}); !errors.Is(err, ErrUnservable) {
							t.Fatalf("k %d seed %d: per-hop DECIDE of a redundant protocol answered %v, want ErrUnservable", k, seed, err)
						}
					}
				}
			})
		}
	}
}
