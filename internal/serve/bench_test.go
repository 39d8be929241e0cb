package serve

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gmp/internal/wire"
)

// The bench deployment is the paper's full-size field (not the small test
// fixture): with 25-destination groups over 600 nodes the GMP decision core
// dominates the request cost, which is what worker scaling is about.
var (
	benchDepOnce sync.Once
	benchDep     *Deployment
	benchDepErr  error
)

func benchDeployment(b testing.TB) *Deployment {
	benchDepOnce.Do(func() {
		benchDep, benchDepErr = NewDeployment(DefaultDeploy())
	})
	if benchDepErr != nil {
		b.Fatal(benchDepErr)
	}
	return benchDep
}

// The serve benchmarks drive the BENCH.json decisions/sec gate: the
// same daemon, same deployment, same offered load at 1 and 4 decision
// workers. cmd/benchgate ratios the two medians and fails CI when the
// 4-worker daemon does not clear the required speedup over the 1-worker
// one; the gate only arms on multi-CPU runs (-cpu 4 in CI), since a single
// CPU cannot show parallel speedup. Each iteration is one complete load run
// over loopback — the measured rate includes the full service path: session
// protocol, admission, decision, reply encoding.
//
// The request mix is deliberately decision-heavy (120-destination groups:
// GMP's split loop is superlinear in k, ~4 ms per decision here) so the
// worker pool — not loopback transport — is the saturated resource. That is
// the regime the worker knob exists for; light requests are transport-bound
// on any machine and show no pool scaling.
func benchServeWorkers(b *testing.B, workers int) {
	dep := benchDeployment(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := New(dep, Config{Workers: workers, QueueDepth: 4096,
		RequestTimeout: 120 * time.Second, IdleTimeout: 120 * time.Second})
	go srv.Serve(ln)
	defer srv.Drain()

	const conns = 16
	b.ResetTimer()
	var decisions int64
	var sec float64
	for i := 0; i < b.N; i++ {
		rep := RunLoad(LoadConfig{
			Addr: ln.Addr().String(), Protocol: "GMP",
			Conns: conns, Requests: 8, K: 120,
			Width: dep.NW.Width(), Height: dep.NW.Height(), Seed: int64(100 + i),
			Timeout: 120 * time.Second,
		})
		if rep.TransportErrors > 0 || rep.Forwards != int64(conns*8) {
			b.Fatalf("load run degraded: %+v", rep)
		}
		decisions += rep.Forwards
		sec += rep.Elapsed.Seconds()
	}
	b.ReportMetric(float64(decisions)/sec, "decisions/s")
}

func BenchmarkServeWorkers1(b *testing.B) { benchServeWorkers(b, 1) }
func BenchmarkServeWorkers4(b *testing.B) { benchServeWorkers(b, 4) }

// The route benchmarks share one daemon — and therefore one decision
// cache — across iterations and -count repeats, and walk the same fixed
// seed every iteration, so both modes run against a warm cache and the
// BENCH.json speedup gate measures exactly the protocol difference:
// one ROUTE with a server-side walk and a one-way HOP stream, versus one
// DECIDE round trip (frame decode, K ClosestNode resolutions, re-encode)
// per decision. The cache is pre-warmed in setup so the first measured
// iteration is not charged the one-time cold walk either.
var (
	routeBenchOnce sync.Once
	routeBenchLn   net.Listener
	routeBenchErr  error
)

func routeBenchCfg(addr, mode string) LoadConfig {
	return LoadConfig{
		Addr: addr, Protocol: "GMP", RouteMode: mode,
		Conns: 2, Requests: 2, K: 120,
		Width: benchDep.NW.Width(), Height: benchDep.NW.Height(), Seed: 7,
		Timeout: 120 * time.Second,
	}
}

func routeBenchAddr(b *testing.B) string {
	dep := benchDeployment(b)
	routeBenchOnce.Do(func() {
		routeBenchLn, routeBenchErr = net.Listen("tcp", "127.0.0.1:0")
		if routeBenchErr != nil {
			return
		}
		srv := New(dep, Config{Workers: 4, QueueDepth: 4096,
			RequestTimeout: 120 * time.Second, IdleTimeout: 120 * time.Second})
		go srv.Serve(routeBenchLn)
		// Warm the shared cache with the exact walks the benchmarks repeat.
		rep := RunLoad(routeBenchCfg(routeBenchLn.Addr().String(), "stream"))
		if rep.TransportErrors > 0 || rep.Routes == 0 {
			routeBenchErr = fmt.Errorf("route bench warmup degraded: %+v", rep)
		}
	})
	if routeBenchErr != nil {
		b.Fatal(routeBenchErr)
	}
	return routeBenchLn.Addr().String()
}

func benchRoutes(b *testing.B, mode string) {
	addr := routeBenchAddr(b)
	cfg := routeBenchCfg(addr, mode)
	want := int64(cfg.Conns * cfg.Requests)
	b.ResetTimer()
	var routes int64
	var sec float64
	for i := 0; i < b.N; i++ {
		rep := RunLoad(cfg)
		if rep.TransportErrors > 0 || rep.Routes != want {
			b.Fatalf("route run degraded: %+v", rep)
		}
		routes += rep.Routes
		sec += rep.Elapsed.Seconds()
	}
	b.ReportMetric(float64(routes)/sec, "routes/s")
}

// BenchmarkRouteK120 streams whole 120-destination multicast walks (one
// ROUTE, server-side continuation, HOP stream); BenchmarkPerHopRouteK120
// walks the identical routes paying one DECIDE round trip per decision.
// cmd/benchgate gates their routes/s ratio (BENCH.json).
func BenchmarkRouteK120(b *testing.B)       { benchRoutes(b, "stream") }
func BenchmarkPerHopRouteK120(b *testing.B) { benchRoutes(b, "perhop") }

// BenchmarkDecideK120 is the allocation-gated microbenchmark of the service
// backend alone — frame decode, packet reconstruction, GMP decision,
// forward re-encode — without transport. BENCH.json gates its
// allocs/op: the request path must stay flat-allocation no matter how
// large the destination group.
func BenchmarkDecideK120(b *testing.B) {
	dep := benchDeployment(b)
	d := newDecider(dep, 0.5, 0)
	rng := rand.New(rand.NewSource(1))
	body := randomRequest(LoadConfig{K: 120, Width: dep.NW.Width(), Height: dep.NW.Height()}, rng)
	// One untimed decision warms the node-view scratch (Steiner tree, memo
	// matrix) so the loop measures the steady-state request path, which is
	// what the allocation gate is about.
	if _, err := d.decide("GMP", body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.decide("GMP", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkRouteK120Cold is the walker layer alone: decider.walkRoute
// on one fixed K=120 GMP start frame, with no memo cache so every decision
// is recomputed, and every HOP encoded and discarded — no transport.
// BENCH.json gates its allocs/op.
func BenchmarkWalkRouteK120Cold(b *testing.B) {
	dep := benchDeployment(b)
	d := newDecider(dep, 0.5, 0)
	d.routeBudget = DefaultRouteBudget
	rng := rand.New(rand.NewSource(1))
	rb := wire.RouteBody{Frame: randomRequest(LoadConfig{K: 120,
		Width: dep.NW.Width(), Height: dep.NW.Height()}, rng).Frame}
	var buf []byte
	emit := func(hb wire.HopBody) bool {
		buf = wire.AppendHop(buf[:0], hb)
		return true
	}
	// One untimed walk warms the node-view scratch and the engine's lanes.
	if _, err := d.walkRoute("GMP", rb, emit); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.walkRoute("GMP", rb, emit); err != nil {
			b.Fatal(err)
		}
	}
}
