package routing

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/testutil"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// arenaChecker wraps a protocol and runs every decision three times: on a
// fresh arena, on an arena shared by every decision of the test (so it has
// served other nodes, degrees, destination counts and protocols), and on the
// lane arena the kernel lent. All three must emit identical forwards: a
// decision must not depend on what an earlier decision left in its arena.
type arenaChecker struct {
	purityChecker
	views  view.Provider
	shared *view.Scratch
	// perimeter counts decisions on perimeter-mode copies.
	perimeter *int
}

func (c arenaChecker) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return c.check("Start", v, pkt, c.p.Start)
}

func (c arenaChecker) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Perimeter {
		*c.perimeter++
	}
	return c.check("Decide", v, pkt, c.p.Decide)
}

func (c arenaChecker) check(step string, v view.NodeView, pkt *sim.Packet,
	decide func(view.NodeView, *sim.Packet) []sim.Forward) []sim.Forward {
	lane := v.Scratch()
	fresh := decide(c.views.At(v.Self(), new(view.Scratch)), pkt.Clone())
	shared := decide(c.views.At(v.Self(), c.shared), pkt.Clone())
	got := decide(c.views.At(v.Self(), lane), pkt)
	c.compare(step, v, fresh, got)
	c.compare(step, v, shared, got)
	return got
}

// TestDecisionsIgnoreArenaHistory replays every decision of full tasks, for
// every registered protocol, on a fresh arena and on arenas reused across
// nodes, K from 3 to 120 and protocols. The deployment has a void, so
// perimeter-mode decisions are among them. Decision arenas belong to the
// kernel's lanes and the service's deciders, which lend one arena to every
// node they decide at; this is the property that makes that sharing safe.
func TestDecisionsIgnoreArenaHistory(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	nodes := network.DeployUniformWithVoid(1000, 1000, 1000, geom.Pt(500, 500), 200, r)
	nw, err := network.New(nodes, 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	oracle := view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
	en := sim.NewEngine(nw, sim.DefaultRadioParams(), 600)
	en.SetViews(oracle)
	shared := new(view.Scratch)
	perimeter := 0
	for _, k := range []int{3, 17, 120, 40} {
		src, dests := pickTask(r, nw.Len(), k)
		for _, sp := range Specs() {
			p, err := Make(sp.Name, registryCtx(nw))
			if err != nil {
				t.Fatalf("Make(%q): %v", sp.Name, err)
			}
			c := arenaChecker{purityChecker: purityChecker{t: t, p: p},
				views: oracle, shared: shared, perimeter: &perimeter}
			m := en.RunTask(c, src, dests)
			if plain := en.RunTask(p, src, dests); !reflect.DeepEqual(m, plain) {
				t.Fatalf("%s K=%d: arena checker changed task metrics:\n%+v\nvs\n%+v", sp.Name, k, m, plain)
			}
		}
	}
	if perimeter == 0 {
		t.Fatal("no perimeter-mode decision was replayed; the void does not exercise face routing")
	}
}

// TestScriptRetainsNoPerNodeArena pins, in bytes, what one script leaves
// resident: with the engine and the oracle kept alive, the heap retained
// after a script over a 2·10⁴-node field may grow by at most 256 B per
// node. Decision arenas live on the kernel's lanes, so what a script leaves
// per node is only the lifelong caches of the nodes it touched (planar
// bearings); a per-node arena retains kilobytes per deciding node.
func TestScriptRetainsNoPerNodeArena(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow memory distorts heap accounting")
	}
	const (
		n        = 20_000
		sessions = 300
		perNode  = 256
	)
	side := math.Sqrt(n * 1000.0) // the field-sessions density: 1000 m² per node
	nw, err := network.New(network.DeployUniform(n, side, side, rand.New(rand.NewSource(409))), side, side, 150)
	if err != nil {
		t.Fatal(err)
	}
	oracle := view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
	en := sim.NewEngine(nw, sim.DefaultRadioParams(), 0)
	en.SetViews(oracle)
	tasks, err := workload.GenerateBatch(rand.New(rand.NewSource(419)), n, 10, sessions)
	if err != nil {
		t.Fatal(err)
	}
	script := make([]sim.Session, len(tasks))
	for i, task := range tasks {
		p := Protocol(NewGMP())
		if i%2 == 1 {
			p = NewGRD()
		}
		script[i] = sim.Session{Start: float64(i) * 0.002, Handler: p, Src: task.Source, Dests: task.Dests}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ms := en.RunScript(script)
	tx := 0
	for i := range ms {
		tx += ms[i].Transmissions
	}
	ms = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(en)
	runtime.KeepAlive(oracle)

	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d transmissions; retained heap growth %d B (%.1f B/node)", tx, growth, float64(growth)/n)
	if tx < n/2 {
		t.Fatalf("script too small to touch the field: %d transmissions over %d nodes", tx, n)
	}
	if growth > perNode*n {
		t.Fatalf("one script retained %d B over %d nodes (%.1f B/node), bound %d B/node",
			growth, n, float64(growth)/n, perNode)
	}
}

// FuzzDeploymentAudit runs every registered protocol on generated
// deployments — uniform, uniform around a void, and uniform around a
// concave obstacle — through the kernel at one and at two workers. Every
// task must pass the engine's accounting audit and every traced hop its
// protocol's declared progress rule (AuditProgress), and both worker counts
// must produce identical metrics, with the lanes' shared decision arenas
// serving every tile.
func FuzzDeploymentAudit(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(300), uint8(8))
	f.Add(int64(2), uint8(1), uint16(350), uint8(20))
	f.Add(int64(3), uint8(2), uint16(250), uint8(5))
	f.Add(int64(4), uint8(1), uint16(60), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, size uint16, k uint8) {
		const side, radio = 1200.0, 150.0
		n := 40 + int(size)%360
		kk := 1 + int(k)%min(30, n-1)
		r := rand.New(rand.NewSource(seed))
		center := geom.Pt(side/2, side/2)
		var nodes []network.Node
		switch kind % 3 {
		case 0:
			nodes = network.DeployUniform(n, side, side, r)
		case 1:
			nodes = network.DeployUniformWithVoid(n, side, side, center, side/5, r)
		default:
			nodes = network.DeployUniformExclude(n, side, side,
				network.CShapedObstacle(center, side/8, side/8+1.2*radio), r)
		}
		nw, err := network.New(nodes, side, side, radio)
		if err != nil {
			t.Fatal(err)
		}
		pg := planar.Planarize(nw, planar.Gabriel)
		src, dests := pickTask(r, n, kk)
		for _, sp := range Specs() {
			var ms [2]sim.TaskMetrics
			for w := range ms {
				p, err := Make(sp.Name, registryCtx(nw))
				if err != nil {
					t.Fatalf("Make(%q): %v", sp.Name, err)
				}
				en := sim.NewEngine(nw, sim.DefaultRadioParams(), 600)
				en.SetViews(view.NewOracle(nw, pg))
				if w > 0 {
					err := en.SetSharding(sim.ShardConfig{Shards: w + 1, Window: sim.Lookahead(en.Radio(), en.ARQ())})
					if err != nil {
						t.Fatal(err)
					}
				}
				var events []sim.TraceEvent
				en.SetTracer(func(ev sim.TraceEvent) { events = append(events, ev) })
				ms[w] = en.RunTask(p, src, dests)
				audit := sim.AuditConfig{MaxHops: en.MaxHops(), AllowDuplicates: sp.Flags&FlagConcurrent != 0}
				if err := sim.AuditTask(&ms[w], audit); err != nil {
					t.Fatalf("%s, %d worker(s), kind %d, n=%d, K=%d: audit: %v", sp.Name, w+1, kind%3, n, kk, err)
				}
				if err := AuditProgress(nw, sp.Progress, events); err != nil {
					t.Fatalf("%s, %d worker(s), kind %d, n=%d, K=%d: %v", sp.Name, w+1, kind%3, n, kk, err)
				}
			}
			if !reflect.DeepEqual(ms[0], ms[1]) {
				t.Fatalf("%s, kind %d, n=%d, K=%d: metrics differ between 1 and 2 workers:\n%+v\nvs\n%+v",
					sp.Name, kind%3, n, kk, ms[0], ms[1])
			}
		}
	})
}
