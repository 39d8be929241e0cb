package serve

// Tests for the streaming route mode and the decision memo cache. The two
// load-bearing claims: a cache hit is byte-identical to a cold recompute
// (for every servable protocol, across the whole reachable request tree),
// and a streamed walk agrees with an offline engine replay of the same
// task — same deliveries, same hop counts, same transmission total, same
// per-destination drop reasons.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// servableProtocols returns every registry protocol the daemon can serve,
// excluding the test-only fixtures this package registers.
func servableProtocols() []string {
	var out []string
	for _, sp := range routing.Specs() {
		if sp.Flags&routing.FlagCentralized != 0 {
			continue
		}
		if sp.Name == "GATE" || sp.Name == "PANIC" {
			continue
		}
		out = append(out, sp.Name)
	}
	return out
}

// cloneReplies deep-copies a decider answer out of its scratch, so two
// answers from the same decider can be compared.
func cloneReplies(in []wire.ForwardReply) []wire.ForwardReply {
	out := make([]wire.ForwardReply, len(in))
	for i, r := range in {
		out[i] = wire.ForwardReply{To: r.To, Frame: append([]byte(nil), r.Frame...)}
	}
	return out
}

func repliesEqual(a, b []wire.ForwardReply) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].To != b[i].To || !bytes.Equal(a[i].Frame, b[i].Frame) {
			return false
		}
	}
	return true
}

// TestCacheHitMatchesColdRecompute walks the reachable request tree of a
// start request for every servable protocol with three deciders — cache-on
// first touch (cold, fills the cache), cache-on second touch (hit), and
// cache-off — and requires all three byte-identical at every node of the
// tree. This is the purity contract the cache stands on, checked where it
// matters: on the wire. A redundant protocol walks only by ROUTE, so its
// tree is compared as the three deciders' HOP streams.
func TestCacheHitMatchesColdRecompute(t *testing.T) {
	dep := testDeployment(t)
	for _, proto := range servableProtocols() {
		t.Run(proto, func(t *testing.T) {
			cache := newDecisionCache(0)
			dc := newDecider(dep, 0.5, 0) // cached
			dc.cache = cache
			dn := newDecider(dep, 0.5, 0) // uncached reference

			rng := rand.New(rand.NewSource(7))
			req := randomRequest(LoadConfig{K: 12,
				Width: dep.NW.Width(), Height: dep.NW.Height()}, rng)
			if CheckPerHop(proto) != nil {
				cold, hit, ref := hopStream(t, dc, proto, req.Frame),
					hopStream(t, dc, proto, req.Frame), hopStream(t, dn, proto, req.Frame)
				if len(cold) < 2 {
					t.Fatalf("walk too short to exercise the cache (%d HOPs)", len(cold))
				}
				if !reflect.DeepEqual(cold, hit) || !reflect.DeepEqual(cold, ref) {
					t.Fatal("cache hits or the uncached decider stream different HOPs")
				}
				if hits, misses, _ := cache.counters(); hits == 0 || misses == 0 {
					t.Fatalf("cache never exercised: hits %d misses %d", hits, misses)
				}
				return
			}

			type item struct{ body wire.DecideBody }
			queue := []item{{body: req}}
			decided := 0
			for head := 0; head < len(queue) && decided < 200; head++ {
				b := queue[head].body
				cold, err := dc.decide(proto, b)
				if err != nil {
					t.Fatalf("cold decide: %v", err)
				}
				coldC := cloneReplies(cold)
				hit, err := dc.decide(proto, b)
				if err != nil {
					t.Fatalf("hit decide: %v", err)
				}
				hitC := cloneReplies(hit)
				ref, err := dn.decide(proto, b)
				if err != nil {
					t.Fatalf("uncached decide: %v", err)
				}
				if !repliesEqual(coldC, hitC) {
					t.Fatalf("cache hit differs from cold recompute at depth %d", head)
				}
				if !repliesEqual(coldC, cloneReplies(ref)) {
					t.Fatalf("cached decider differs from uncached at depth %d", head)
				}
				decided++
				for _, fwd := range coldC {
					if fwd.To >= 0 {
						queue = append(queue, item{body: wire.DecideBody{
							Op: wire.OpDecide, Frame: fwd.Frame}})
					}
				}
			}
			if decided < 2 {
				t.Fatalf("request tree too shallow to exercise the cache (%d decisions)", decided)
			}
			hits, misses, _ := cache.counters()
			if hits == 0 || misses == 0 {
				t.Fatalf("cache never exercised: hits %d misses %d", hits, misses)
			}
		})
	}
}

// hopStream walks a ROUTE on d and returns its HOPs, frames copied out.
func hopStream(t *testing.T, d *decider, proto string, start []byte) []wire.HopBody {
	t.Helper()
	var hops []wire.HopBody
	if _, err := d.walkRoute(proto, wire.RouteBody{Frame: start}, func(hb wire.HopBody) bool {
		hb.Frame = append([]byte(nil), hb.Frame...)
		hops = append(hops, hb)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return hops
}

// TestCacheEvictionDeterministic pins the eviction policy: strictly LRU,
// one entry per overflowing insert, identical residents and counters for
// identical request sequences.
func TestCacheEvictionDeterministic(t *testing.T) {
	run := func() (*decisionCache, string) {
		c := newDecisionCache(3)
		key := func(i int) []byte { return []byte{byte(i)} }
		for i := 1; i <= 5; i++ {
			c.get(key(i)) // miss
			c.put(key(i), []sim.Forward{{To: i}})
		}
		c.get(key(5))                         // hit; 5 most recent
		c.get(key(3))                         // hit
		c.put(key(6), []sim.Forward{{To: 6}}) // evicts 4 (LRU among 3,4,5)
		var trace []byte
		for i := 1; i <= 6; i++ {
			if recs := c.get(key(i)); recs != nil {
				trace = append(trace, byte(i))
			}
		}
		return c, fmt.Sprint(trace)
	}
	c1, t1 := run()
	c2, t2 := run()
	if t1 != t2 {
		t.Fatalf("eviction nondeterministic: %s vs %s", t1, t2)
	}
	if t1 != fmt.Sprint([]byte{3, 5, 6}) {
		t.Fatalf("unexpected residents %s (want [3 5 6])", t1)
	}
	h1, m1, e1 := c1.counters()
	h2, m2, e2 := c2.counters()
	if h1 != h2 || m1 != m2 || e1 != e2 {
		t.Fatalf("counter mismatch: (%d,%d,%d) vs (%d,%d,%d)", h1, m1, e1, h2, m2, e2)
	}
	if e1 != 3 { // inserts 4, 5, 6 each evicted one entry
		t.Fatalf("evictions %d, want 3", e1)
	}
	if c1.len() != 3 {
		t.Fatalf("resident count %d, want 3", c1.len())
	}
}

// TestCacheDuplicatePutKeepsFirst pins the concurrent-duplicate rule.
func TestCacheDuplicatePutKeepsFirst(t *testing.T) {
	c := newDecisionCache(3)
	c.put([]byte("k"), []sim.Forward{{To: 1}})
	c.put([]byte("k"), []sim.Forward{{To: 2}})
	if recs := c.get([]byte("k")); len(recs) != 1 || recs[0].To != 1 {
		t.Fatalf("duplicate put replaced the first entry: %+v", recs)
	}
	if c.len() != 1 {
		t.Fatalf("resident count %d, want 1", c.len())
	}
}

// TestCacheSharedAcrossDeciders hammers one cache from several deciders
// concurrently (the server's worker topology) and checks every answer
// against an uncached reference. Run under -race this is the cache's
// concurrency proof.
func TestCacheSharedAcrossDeciders(t *testing.T) {
	dep := testDeployment(t)
	cache := newDecisionCache(64) // small: forces concurrent eviction too
	rng := rand.New(rand.NewSource(11))
	var bodies []wire.DecideBody
	for i := 0; i < 8; i++ {
		bodies = append(bodies, randomRequest(LoadConfig{K: 10,
			Width: dep.NW.Width(), Height: dep.NW.Height()}, rng))
	}
	ref := newDecider(dep, 0.5, 0)
	var want [][]wire.ForwardReply
	for _, b := range bodies {
		reps, err := ref.decide("GMP", b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cloneReplies(reps))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := newDecider(dep, 0.5, 0)
			d.cache = cache
			for round := 0; round < 20; round++ {
				i := (round + w) % len(bodies)
				reps, err := d.decide("GMP", bodies[i])
				if err != nil {
					errs <- err
					return
				}
				if !repliesEqual(reps, want[i]) {
					errs <- fmt.Errorf("worker %d round %d: cached answer diverged", w, round)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// routeFrame builds a ROUTE start frame addressed at real node positions,
// so the walker's location resolution is exact and an engine replay of the
// same (src, dests) task is comparable.
func routeFrame(t *testing.T, dep *Deployment, src int, dests []int) []byte {
	t.Helper()
	f := &wire.Frame{Source: dep.NW.Pos(src)}
	f.NextHop = f.Source
	for _, d := range dests {
		f.Dests = append(f.Dests, dep.NW.Pos(d))
	}
	data, err := wire.Encode(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWalkMatchesEngineReplay is the fidelity oracle: for every servable
// protocol — MCFR's redundant copies included — the server-side walk of a
// task must agree with the simulation engine running the same task:
// identical transmission totals, and for each destination the same fate —
// delivered at the same hop count, or dropped for the same first reason.
// Every walk streams its HOPs, so each copy's frame is encoded (and must
// decode), and the streamed transmissions must add up to the summary.
func TestWalkMatchesEngineReplay(t *testing.T) {
	dep := testDeployment(t)
	const budget = 100
	for _, proto := range servableProtocols() {
		t.Run(proto, func(t *testing.T) {
			d := newDecider(dep, 0.5, 0)
			d.cache = newDecisionCache(0)
			d.routeBudget = budget
			en := sim.NewEngine(dep.NW, sim.DefaultRadioParams(), budget)
			en.SetViews(view.NewOracle(dep.NW, dep.PG))
			for _, k := range []int{12, 32, 52} {
				for seed := int64(1); seed <= 40; seed++ {
					rng := rand.New(rand.NewSource(seed))
					src, dests := pickNodes(rng, dep.NW.Len(), k)

					streamed := 0
					done, err := d.walkRoute(proto,
						wire.RouteBody{Frame: routeFrame(t, dep, src, dests)}, func(hb wire.HopBody) bool {
							if _, err := wire.Decode(hb.Frame); err != nil {
								t.Fatalf("k %d seed %d: HOP %d does not decode: %v", k, seed, hb.Seq, err)
							}
							if hb.To >= 0 {
								streamed++
							}
							return true
						})
					if err != nil {
						t.Fatalf("k %d seed %d: walk: %v", k, seed, err)
					}
					if streamed != int(done.Hops) {
						t.Fatalf("k %d seed %d: %d HOPs streamed for %d transmissions", k, seed, streamed, done.Hops)
					}
					h, err := routing.Make(proto, routing.Ctx{Lambda: 0.5, LambdaSet: true})
					if err != nil {
						t.Fatal(err)
					}
					m := en.RunTask(h, src, dests)

					if int(done.Hops) != m.Transmissions {
						t.Fatalf("k %d seed %d: walk hops %d != engine transmissions %d",
							k, seed, done.Hops, m.Transmissions)
					}
					if len(done.Outcomes) != m.DestCount {
						t.Fatalf("k %d seed %d: %d outcomes for %d destinations",
							k, seed, len(done.Outcomes), m.DestCount)
					}
					for _, o := range done.Outcomes {
						id := int(o.Node)
						if o.Status == wire.RouteDelivered {
							if want, ok := m.Delivered[id]; !ok || int(o.Hops) != want {
								t.Fatalf("k %d seed %d: dest %d delivered at %d hops; engine delivered %v at %d",
									k, seed, id, o.Hops, ok, want)
							}
							continue
						}
						r, ok := m.Dropped[id]
						if !ok || o.Status != ReasonStatus(r) {
							t.Fatalf("k %d seed %d: dest %d status %d; engine dropped %v as %v",
								k, seed, id, o.Status, ok, r)
						}
					}
				}
			}
		})
	}
}

// TestRouteDropStatusesRoundTrip pins the one reason ↔ status table: each
// status a walk reports maps back to the reason it was made from, a
// delivery is not a drop, and reasons a walk never bills report stranded.
func TestRouteDropStatusesRoundTrip(t *testing.T) {
	for r := sim.DropReason(0); r < sim.NumDropReasons; r++ {
		back, ok := StatusReason(ReasonStatus(r))
		if !ok {
			t.Fatalf("%v: status %d is not a drop", r, ReasonStatus(r))
		}
		if back != r && back != sim.ReasonStranded {
			t.Errorf("%v: status %d maps back to %v", r, ReasonStatus(r), back)
		}
	}
	if _, ok := StatusReason(wire.RouteDelivered); ok {
		t.Error("RouteDelivered maps to a drop reason")
	}
}

// TestCacheKeyCoversPerimeterState pins the memo cache's purity on the
// perimeter state: setting any planar.State field must change the key. The
// fields are enumerated by reflection, so a field added later fails here
// until the key covers it (or the test learns its kind).
func TestCacheKeyCoversPerimeterState(t *testing.T) {
	d := newDecider(testDeployment(t), 0.5, 0)
	pkt := &sim.Packet{Header: sim.Header{Dests: []int{3}, Locs: []geom.Point{{X: 1, Y: 2}},
		Anchor: -1, Perimeter: true}}
	base := string(d.appendCacheKey(nil, "MCFR", wire.OpDecide, 0, pkt))
	st := reflect.TypeOf(planar.State{})
	for i := 0; i < st.NumField(); i++ {
		q := *pkt
		f := reflect.ValueOf(&q.Peri).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Struct: // geom.Point
			f.Set(reflect.ValueOf(geom.Point{X: 3, Y: 4}))
		default:
			t.Fatalf("planar.State.%s: unhandled kind %v", st.Field(i).Name, f.Kind())
		}
		if string(d.appendCacheKey(nil, "MCFR", wire.OpDecide, 0, &q)) == base {
			t.Errorf("cache key ignores planar.State.%s", st.Field(i).Name)
		}
	}
}

// TestRouteCacheInvisibleMCFR is the ROUTE-level memo regression: MCFR's
// senior and junior copies meet the same node with otherwise identical
// state, so a key missing their direction bits serves one copy the other's
// decision. Summaries with the cache on and off must be byte-identical.
func TestRouteCacheInvisibleMCFR(t *testing.T) {
	dep := testDeployment(t)
	on := newDecider(dep, 0.5, 0)
	on.cache = newDecisionCache(0)
	off := newDecider(dep, 0.5, 0)
	hits := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src, dests := pickNodes(rng, dep.NW.Len(), 12)
		rb := wire.RouteBody{Frame: routeFrame(t, dep, src, dests)}
		a, err := on.walkRoute("MCFR", rb, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := off.walkRoute("MCFR", rb, nil)
		if err != nil {
			t.Fatal(err)
		}
		hits += int(a.CacheHits)
		a.CacheHits = 0
		if !reflect.DeepEqual(*a, *b) {
			t.Errorf("seed %d: cached walk (%d hops) differs from uncached (%d hops)",
				seed, a.Hops, b.Hops)
		}
	}
	if hits == 0 {
		t.Fatal("cache never hit; the regression is not exercised")
	}
}

// pickNodes returns a source and k distinct destinations (none the source).
func pickNodes(r *rand.Rand, n, k int) (int, []int) {
	src := r.Intn(n)
	seen := map[int]bool{src: true}
	var dests []int
	for len(dests) < k {
		d := r.Intn(n)
		if !seen[d] {
			seen[d] = true
			dests = append(dests, d)
		}
	}
	return src, dests
}

// TestRouteSessionStream drives the full service path: one ROUTE request,
// HOP stream, ROUTE_DONE summary. It checks stream consistency (sequential
// seq numbers, transmission count matching the summary), summary sanity
// (sorted outcomes covering the whole group), quiet-mode equivalence, and
// that the first streamed hops are byte-identical to a per-hop DECIDE on
// the same start frame — the two modes share one encode path and this pins
// it from the outside.
func TestRouteSessionStream(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 2})
	defer srv.Drain()
	dep := testDeployment(t)

	c, err := Dial(addr, "GMP", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(3))
	src, dests := pickNodes(rng, dep.NW.Len(), 10)
	frame := routeFrame(t, dep, src, dests)

	var hops []wire.HopBody
	rep, err := c.Route(wire.RouteBody{Frame: frame}, func(hb wire.HopBody) {
		hb.Frame = append([]byte(nil), hb.Frame...)
		hops = append(hops, hb)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.MsgRouteDone {
		t.Fatalf("got %s: %+v", wire.MsgName(rep.Kind), rep)
	}
	done := rep.Done
	if len(done.Outcomes) != len(dests) {
		t.Fatalf("outcomes %d, want %d", len(done.Outcomes), len(dests))
	}
	for i, o := range done.Outcomes {
		if i > 0 && done.Outcomes[i-1].Node >= o.Node {
			t.Fatal("outcomes not sorted by node")
		}
		if o.Status == wire.RouteDelivered && o.Hops == 0 && int(o.Node) != src {
			t.Fatalf("dest %d delivered at 0 hops but is not the source", o.Node)
		}
	}
	transmissions := 0
	for i, hb := range hops {
		if hb.Seq != uint32(i) {
			t.Fatalf("hop %d has seq %d", i, hb.Seq)
		}
		if hb.To >= 0 {
			transmissions++
		}
	}
	if transmissions != int(done.Hops) {
		t.Fatalf("streamed %d transmissions, summary says %d", transmissions, done.Hops)
	}
	if done.Decisions == 0 || done.Hops == 0 {
		t.Fatalf("trivial walk: %+v", done)
	}

	// Quiet mode: same summary, no HOPs on the wire.
	quiet, err := c.Route(wire.RouteBody{Frame: frame, Flags: wire.RouteQuiet},
		func(wire.HopBody) { t.Fatal("HOP received in quiet mode") })
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Done.Hops != done.Hops || len(quiet.Done.Outcomes) != len(done.Outcomes) {
		t.Fatalf("quiet summary differs: %+v vs %+v", quiet.Done, done)
	}
	for i := range done.Outcomes {
		if quiet.Done.Outcomes[i] != done.Outcomes[i] {
			t.Fatalf("quiet outcome %d differs", i)
		}
	}

	// First-level byte identity with per-hop mode: the start decision's
	// streamed frames must equal a DECIDE answer for the same frame.
	dr, err := c.Do(wire.DecideBody{Op: wire.OpStart, Frame: frame})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Kind != wire.MsgForwards {
		t.Fatalf("DECIDE answered %s", wire.MsgName(dr.Kind))
	}
	if len(dr.Forwards) > len(hops) {
		t.Fatalf("stream shorter (%d) than start decision (%d)", len(hops), len(dr.Forwards))
	}
	for i, fwd := range dr.Forwards {
		if hops[i].To != fwd.To {
			t.Fatalf("hop %d: To %d vs DECIDE %d", i, hops[i].To, fwd.To)
		}
		if !bytes.Equal(hops[i].Frame, fwd.Frame) {
			t.Fatalf("hop %d frame differs from per-hop DECIDE frame", i)
		}
	}

	// Conservation from the stats side: every admitted request answered.
	st := srv.Stats()
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if st.AnsweredRoutes != 2 || st.RouteHops != 2*int64(done.Hops) {
		t.Fatalf("route stats: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("cache untouched: %+v", st)
	}
}

// TestRouteOverrun pins the step-ceiling defense: a walk that cannot finish
// within RouteMaxSteps is answered ERROR CodeOverrun, and the daemon keeps
// serving afterwards.
func TestRouteOverrun(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1, RouteMaxSteps: 1})
	defer srv.Drain()
	dep := testDeployment(t)

	c, err := Dial(addr, "GMP", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(5))
	src, dests := pickNodes(rng, dep.NW.Len(), 10)
	rep, err := c.Route(wire.RouteBody{Frame: routeFrame(t, dep, src, dests)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.MsgError || rep.Err.Code != wire.CodeOverrun {
		t.Fatalf("want ERROR CodeOverrun, got %s (%+v)", wire.MsgName(rep.Kind), rep.Err)
	}
	// The worker survived; an ordinary DECIDE still works.
	dr, err := c.Do(randomRequest(LoadConfig{K: 5,
		Width: dep.NW.Width(), Height: dep.NW.Height()}, rng))
	if err != nil {
		t.Fatal(err)
	}
	if dr.Kind != wire.MsgForwards {
		t.Fatalf("post-overrun DECIDE answered %s", wire.MsgName(dr.Kind))
	}
	if err := srv.Stats().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRoutePanicIsolation pins that a walk's protocol runs on the worker
// goroutine, inside the per-request recover: a panicking protocol costs one
// ERROR CodePanic answer, and the same single worker — its decider and
// engine reused — goes on to answer GMP walks.
func TestRoutePanicIsolation(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1})
	defer srv.Drain()
	dep := testDeployment(t)
	rng := rand.New(rand.NewSource(9))
	src, dests := pickNodes(rng, dep.NW.Len(), 10)
	rb := wire.RouteBody{Frame: routeFrame(t, dep, src, dests)}

	pc, err := Dial(addr, "PANIC", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	rep, err := pc.Route(rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.MsgError || rep.Err.Code != wire.CodePanic {
		t.Fatalf("want ERROR CodePanic, got %s (%+v)", wire.MsgName(rep.Kind), rep.Err)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}

	c, err := Dial(addr, "GMP", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		rep, err := c.Route(rb, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != wire.MsgRouteDone || len(rep.Done.Outcomes) != len(dests) {
			t.Fatalf("post-panic route %d: %s (%+v)", i, wire.MsgName(rep.Kind), rep.Err)
		}
	}
	if err := srv.Stats().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRouteMalformed pins the admission rules for ROUTE bodies: a short
// body is answered ERROR without admission; a ROUTE whose frame carries
// start-illegal state (PERIMODE, a non-zero hop count) is admitted and
// answered ERROR.
func TestRouteMalformed(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1})
	defer srv.Drain()
	dep := testDeployment(t)

	r := dialRaw(t, addr, "GMP")
	r.write(wire.Msg{Type: wire.MsgRoute, ID: 2, Body: []byte{0}})
	if m := r.read(); m.Type != wire.MsgError {
		t.Fatalf("short ROUTE body: got %s", wire.MsgName(m.Type))
	}
	if got := srv.Stats().Admitted; got != 0 {
		t.Fatalf("malformed ROUTE admitted: %d", got)
	}

	for i, f := range []*wire.Frame{
		{Source: dep.NW.Pos(0), NextHop: dep.NW.Pos(0), Flags: wire.FlagPerimeter},
		{Source: dep.NW.Pos(0), NextHop: dep.NW.Pos(0), Hops: 3},
	} {
		f.Dests = append(f.Dests, dep.NW.Pos(1))
		data, err := wire.Encode(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.write(wire.Msg{Type: wire.MsgRoute, ID: uint64(3 + i),
			Body: wire.EncodeRoute(wire.RouteBody{Frame: data})})
		if m := r.read(); m.Type != wire.MsgError {
			t.Fatalf("start-illegal frame %d: got %s", i, wire.MsgName(m.Type))
		}
	}
	if err := srv.Stats().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	r.conn.Close()
}

// TestRouteLoadgenModes runs the load generator's three modes against one
// daemon and cross-checks their accounting: stream and perhop walk the same
// PRNG routes, so their transmission totals must agree exactly when the
// cache is deterministic and the budget matches.
func TestRouteLoadgenModes(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 2})
	defer srv.Drain()
	dep := testDeployment(t)

	base := LoadConfig{
		Addr: addr, Protocol: "GMP", Conns: 2, Requests: 3, K: 8,
		Width: dep.NW.Width(), Height: dep.NW.Height(), Seed: 42,
		Timeout: 10 * time.Second, RecordRoutes: true,
	}
	stream := base
	stream.RouteMode = "stream"
	srep := RunLoad(stream)
	if srep.Routes != 6 || srep.TransportErrors > 0 {
		t.Fatalf("stream run: %+v", srep)
	}
	if len(srep.RouteDones) != 6 {
		t.Fatalf("RecordRoutes kept %d summaries", len(srep.RouteDones))
	}
	var streamHops int64
	for _, d := range srep.RouteDones {
		streamHops += int64(d.Hops)
		if len(d.Outcomes) == 0 {
			t.Fatal("route summary with no outcomes")
		}
	}
	if streamHops != srep.RouteHops {
		t.Fatalf("hops accounting: %d vs %d", streamHops, srep.RouteHops)
	}

	perhop := base
	perhop.RouteMode = "perhop"
	prep := RunLoad(perhop)
	if prep.Routes != 6 || prep.TransportErrors > 0 {
		t.Fatalf("perhop run: %+v", prep)
	}
	if prep.RouteHops != srep.RouteHops {
		t.Fatalf("perhop transmissions %d != streamed %d", prep.RouteHops, srep.RouteHops)
	}
	if prep.Sent <= srep.Sent {
		t.Fatalf("perhop sent %d requests, streamed %d — per-hop must pay more round trips",
			prep.Sent, srep.Sent)
	}
	if err := srv.Stats().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
