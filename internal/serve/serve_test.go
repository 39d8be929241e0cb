package serve

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// --- test fixtures -------------------------------------------------------

var (
	depOnce sync.Once
	testDep *Deployment
)

func testDeployment(t testing.TB) *Deployment {
	depOnce.Do(func() {
		dep, err := NewDeployment(DeployConfig{Nodes: 120, Width: 500, Height: 500,
			RadioRange: 100, Seed: 1})
		if err != nil {
			panic(err)
		}
		testDep = dep
	})
	return testDep
}

// gateProto blocks inside the decision until released, making overload
// deterministic: the test parks the single worker here, fills the queue,
// and knows exactly which requests must shed.
type gateProto struct{}

var (
	gateEntered chan struct{}
	gateRelease chan struct{}
)

func resetGate() {
	gateEntered = make(chan struct{}, 64)
	gateRelease = make(chan struct{})
}

func (gateProto) Name() string { return "GATE" }
func (gateProto) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	gateEntered <- struct{}{}
	<-gateRelease
	return []sim.Forward{{To: sim.DropCopy, Header: pkt.Header}}
}
func (gateProto) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return []sim.Forward{{To: sim.DropCopy, Header: pkt.Header}}
}

// panicProto panics on every decision: the worker's isolation must convert
// it into a CodePanic answer with the daemon intact.
type panicProto struct{}

func (panicProto) Name() string { return "PANIC" }
func (panicProto) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	panic("deliberate test panic")
}
func (panicProto) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	panic("deliberate test panic")
}

func init() {
	routing.MustRegister(routing.Spec{Name: "GATE", New: func(routing.Ctx) routing.Protocol { return gateProto{} }})
	routing.MustRegister(routing.Spec{Name: "PANIC", New: func(routing.Ctx) routing.Protocol { return panicProto{} }})
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(testDeployment(t), cfg)
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// raw is a hand-driven session: unlike Client it can flood requests without
// reading replies, which is what the overload tests need.
type raw struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr, protocol string) *raw {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := &raw{t: t, conn: conn}
	r.write(wire.Msg{Type: wire.MsgHello, ID: 1, Body: wire.EncodeHello(
		wire.HelloBody{Version: wire.SessionVersion, Protocol: protocol})})
	m := r.read()
	if m.Type != wire.MsgHello {
		t.Fatalf("handshake: got %s", wire.MsgName(m.Type))
	}
	return r
}

func (r *raw) write(m wire.Msg) {
	r.t.Helper()
	r.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.conn.Write(wire.AppendMsg(nil, m)); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

func (r *raw) read() wire.Msg {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.ReadMsg(r.conn)
	if err != nil {
		r.t.Fatalf("raw read: %v", err)
	}
	return m
}

func (r *raw) decide(id uint64, body wire.DecideBody) {
	r.write(wire.Msg{Type: wire.MsgDecide, ID: id, Body: wire.EncodeDecide(body)})
}

// collect reads replies (skipping DRAIN broadcasts) until it has n,
// returning them by request ID.
func (r *raw) collect(n int) map[uint64]wire.Msg {
	out := make(map[uint64]wire.Msg, n)
	for len(out) < n {
		m := r.read()
		if m.Type == wire.MsgDrain {
			continue
		}
		out[m.ID] = m
	}
	return out
}

func startRequest(t *testing.T, k int) wire.DecideBody {
	t.Helper()
	f := &wire.Frame{Source: geom.Pt(250, 250), NextHop: geom.Pt(250, 250)}
	for i := 0; i < k; i++ {
		f.Dests = append(f.Dests, geom.Pt(60+float64(i)*90, 420))
	}
	data, err := wire.Encode(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wire.DecideBody{Op: wire.OpStart, Frame: data}
}

// --- decision correctness ------------------------------------------------

// TestDecideGMPEndToEnd drives a start decision and one relay decision
// through a real server with the real GMP protocol, checking the replies
// are transmittable frames whose next hops are radio neighbors.
func TestDecideGMPEndToEnd(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 2})
	defer srv.Drain()
	c, err := Dial(addr, "GMP", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Nodes() != testDep.NW.Len() {
		t.Fatalf("HELLO echo nodes = %d, want %d", c.Nodes(), testDep.NW.Len())
	}

	rep, err := c.Do(startRequest(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.MsgForwards {
		t.Fatalf("start answer: %s (err %+v)", wire.MsgName(rep.Kind), rep.Err)
	}
	if len(rep.Forwards) == 0 {
		t.Fatal("start decision produced no forwards")
	}
	src := testDep.NW.ClosestNode(geom.Pt(250, 250))
	for _, fw := range rep.Forwards {
		if fw.To < 0 {
			continue
		}
		frame, err := wire.Decode(fw.Frame)
		if err != nil {
			t.Fatalf("forward frame does not decode: %v", err)
		}
		if frame.Hops != 1 {
			t.Fatalf("forwarded hop count = %d, want 1", frame.Hops)
		}
		if len(frame.Dests) == 0 {
			t.Fatal("forward carries no destinations")
		}
		found := false
		for _, nb := range testDep.NW.Neighbors(src) {
			if int32(nb) == fw.To {
				found = true
			}
		}
		if !found {
			t.Fatalf("next hop %d is not a radio neighbor of source %d", fw.To, src)
		}
	}

	// Feed the first forwarded frame back as a relay decision: the service
	// is stateless, so the reply frame alone must carry enough to continue.
	first := rep.Forwards[0]
	rep2, err := c.Do(wire.DecideBody{Op: wire.OpDecide, Frame: first.Frame})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Kind != wire.MsgForwards {
		t.Fatalf("relay answer: %s (%+v)", wire.MsgName(rep2.Kind), rep2.Err)
	}

	srv.Drain()
	if err := srv.Stats().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestHelloRejections: unknown and centralized protocols are refused at
// handshake with typed codes.
func TestHelloRejections(t *testing.T) {
	srv, addr := startServer(t, Config{})
	defer srv.Drain()
	for name, wantCode := range map[string]uint16{
		"NOPE": wire.CodeBadProtocol,
		"SMT":  wire.CodeBadProtocol, // centralized: needs the ground-truth net
	} {
		_, err := Dial(addr, name, 2*time.Second)
		if err == nil {
			t.Fatalf("%s: handshake accepted", name)
		}
		_ = wantCode // code is embedded in the error string; presence of refusal is the contract
	}
	// A good protocol still works on the same server afterwards.
	c, err := Dial(addr, "GMP", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// A redundant protocol opens a session and streams ROUTEs, but a
	// per-hop DECIDE is refused with a typed answer.
	mc, err := Dial(addr, "MCFR", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	rep, err := mc.Do(startRequest(t, 3))
	if err != nil || rep.Kind != wire.MsgError || rep.Err.Code != wire.CodeBadProtocol {
		t.Fatalf("MCFR DECIDE: err %v, answer %s %+v", err, wire.MsgName(rep.Kind), rep.Err)
	}
	hops := 0
	rep, err = mc.Route(wire.RouteBody{Frame: startRequest(t, 3).Frame}, func(wire.HopBody) { hops++ })
	if err != nil || rep.Kind != wire.MsgRouteDone || hops == 0 {
		t.Fatalf("MCFR ROUTE: err %v, answer %s after %d HOPs", err, wire.MsgName(rep.Kind), hops)
	}
}

// TestMalformedAndHostileRequests: corrupt frames and panicking decisions
// are answered (ERROR) and the session — and daemon — survive them.
func TestMalformedAndHostileRequests(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1})
	defer srv.Drain()

	c, err := Dial(addr, "GMP", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Do(wire.DecideBody{Op: wire.OpStart, Frame: []byte{0xDE, 0xAD, 0xBE, 0xEF}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.MsgError || rep.Err.Code != wire.CodeBadRequest {
		t.Fatalf("corrupt frame: %s code %d", wire.MsgName(rep.Kind), rep.Err.Code)
	}
	// The session survives a bad request.
	if rep, err = c.Do(startRequest(t, 3)); err != nil || rep.Kind != wire.MsgForwards {
		t.Fatalf("after corrupt frame: %v %s", err, wire.MsgName(rep.Kind))
	}
	// A coordinate that names no location is a bad request, per hop and
	// streamed: the first of three destinations (no payload) gets a
	// signaling-NaN X.
	nan := startRequest(t, 3)
	binary.BigEndian.PutUint32(nan.Frame[len(nan.Frame)-3*8:], 0xffb23030)
	if rep, err = c.Do(nan); err != nil || rep.Kind != wire.MsgError || rep.Err.Code != wire.CodeBadRequest {
		t.Fatalf("NaN DECIDE: %v %s code %d", err, wire.MsgName(rep.Kind), rep.Err.Code)
	}
	if rep, err = c.Route(wire.RouteBody{Frame: nan.Frame}, nil); err != nil || rep.Kind != wire.MsgError || rep.Err.Code != wire.CodeBadRequest {
		t.Fatalf("NaN ROUTE: %v %s code %d", err, wire.MsgName(rep.Kind), rep.Err.Code)
	}

	pc, err := Dial(addr, "PANIC", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	rep, err = pc.Do(startRequest(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.MsgError || rep.Err.Code != wire.CodePanic {
		t.Fatalf("panic answer: %s code %d", wire.MsgName(rep.Kind), rep.Err.Code)
	}
	// The worker survives the panic: the same server still serves GMP.
	if rep, err = c.Do(startRequest(t, 3)); err != nil || rep.Kind != wire.MsgForwards {
		t.Fatalf("after panic: %v %s", err, wire.MsgName(rep.Kind))
	}
	if srv.Stats().Panics != 1 {
		t.Fatalf("panics = %d", srv.Stats().Panics)
	}
}

// --- satellite 3: table-driven overload / shed / drain accounting --------

// TestShedAndDrainAccounting drives the server through deterministic fault
// schedules — the single worker parked inside a gated decision, the queue
// filled to a known depth — and checks (a) each request's answer is exactly
// the expected FORWARDS or SHED-with-reason, (b) the conservation invariant
// answered + shed == admitted, and (c) drain reports are accurate.
// expect is one request's required answer: the reply kind, and for SHED the
// required reason.
type expect struct {
	kind   byte
	reason byte
}

func TestShedAndDrainAccounting(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// script runs the schedule and returns the per-request expectation
		// plus how many replies to collect; drain is called afterwards.
		script func(t *testing.T, r *raw, srv *Server) map[uint64]expect
		check  func(t *testing.T, st Stats, rep DrainReport)
	}{
		{
			name: "queue-full-shed",
			cfg:  Config{Workers: 1, QueueDepth: 1, RequestTimeout: 10 * time.Second},
			script: func(t *testing.T, r *raw, srv *Server) map[uint64]expect {
				req := startRequest(t, 2)
				r.decide(10, req)
				<-gateEntered // worker parked
				r.decide(11, req)
				waitFor(t, func() bool { return len(srv.queue) == 1 })
				r.decide(12, req)
				r.decide(13, req)
				exp := map[uint64]expect{
					12: {wire.MsgShed, wire.ShedQueue},
					13: {wire.MsgShed, wire.ShedQueue},
				}
				got := r.collect(2) // both sheds answer while the worker is parked
				checkReplies(t, got, exp)
				close(gateRelease)
				return map[uint64]expect{
					10: {kind: wire.MsgForwards},
					11: {kind: wire.MsgForwards},
				}
			},
			check: func(t *testing.T, st Stats, rep DrainReport) {
				if st.Admitted != 4 || st.AnsweredForwards != 2 || st.ShedQueue != 2 {
					t.Fatalf("counters: %+v", st)
				}
				if !rep.Clean || rep.Flushed != 0 {
					t.Fatalf("drain after idle should be clean: %+v", rep)
				}
			},
		},
		{
			name: "deadline-shed",
			cfg:  Config{Workers: 1, QueueDepth: 4, RequestTimeout: 40 * time.Millisecond},
			script: func(t *testing.T, r *raw, srv *Server) map[uint64]expect {
				req := startRequest(t, 2)
				r.decide(20, req)
				<-gateEntered
				r.decide(21, req) // queued behind the parked worker
				waitFor(t, func() bool { return len(srv.queue) == 1 })
				time.Sleep(120 * time.Millisecond) // blow 21's deadline in queue
				close(gateRelease)
				return map[uint64]expect{
					20: {kind: wire.MsgForwards},
					21: {wire.MsgShed, wire.ShedDeadline},
				}
			},
			check: func(t *testing.T, st Stats, rep DrainReport) {
				if st.Admitted != 2 || st.AnsweredForwards != 1 || st.ShedDeadline != 1 {
					t.Fatalf("counters: %+v", st)
				}
			},
		},
		{
			name: "drain-flush-shed",
			cfg: Config{Workers: 1, QueueDepth: 4, RequestTimeout: 10 * time.Second,
				DrainBudget: 60 * time.Millisecond},
			script: func(t *testing.T, r *raw, srv *Server) map[uint64]expect {
				req := startRequest(t, 2)
				r.decide(30, req)
				<-gateEntered
				r.decide(31, req) // will still be queued when the budget expires
				waitFor(t, func() bool { return len(srv.queue) == 1 })
				time.AfterFunc(150*time.Millisecond, func() { close(gateRelease) })
				return nil // replies race the drain eviction; audit server-side only
			},
			check: func(t *testing.T, st Stats, rep DrainReport) {
				if st.Admitted != 2 || st.AnsweredForwards != 1 || st.ShedDraining != 1 {
					t.Fatalf("counters: %+v", st)
				}
				if rep.Clean || rep.Flushed != 1 {
					t.Fatalf("budget-expired drain must flush the stuck request: %+v", rep)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resetGate()
			srv, addr := startServer(t, tc.cfg)
			r := dialRaw(t, addr, "GATE")
			defer r.conn.Close()
			exp := tc.script(t, r, srv)
			if exp != nil {
				checkReplies(t, r.collect(len(exp)), exp)
			}
			rep := srv.Drain()
			st := rep.Stats
			if err := st.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			tc.check(t, st, rep)
		})
	}
}

func checkReplies(t *testing.T, got map[uint64]wire.Msg, exp map[uint64]expect) {
	t.Helper()
	for id, e := range exp {
		m, ok := got[id]
		if !ok {
			t.Fatalf("request %d: no reply (got %v)", id, got)
		}
		if m.Type != e.kind {
			t.Fatalf("request %d: %s, want %s", id, wire.MsgName(m.Type), wire.MsgName(e.kind))
		}
		if e.kind == wire.MsgShed {
			sb, err := wire.DecodeShed(m.Body)
			if err != nil {
				t.Fatal(err)
			}
			if sb.Reason != e.reason {
				t.Fatalf("request %d: shed %s, want %s", id, wire.ShedName(sb.Reason), wire.ShedName(e.reason))
			}
			if sb.RetryAfterMs == 0 {
				t.Fatalf("request %d: shed without retry-after hint", id)
			}
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// --- slow-client eviction ------------------------------------------------

// TestSlowClientEvicted trickles the server's writes through a chaos
// connection: replies that cannot be absorbed within WriteTimeout must
// evict the session — never wedge a worker — and conservation must hold
// with the undelivered answers accounted.
func TestSlowClientEvicted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewChaosListener(ln, ChaosPlan{Mode: ChaosTrickle, Fraction: 1,
		TrickleBytes: 2, TrickleDelay: 3 * time.Millisecond})
	srv := New(testDeployment(t), Config{Workers: 2, WriteTimeout: 25 * time.Millisecond,
		SendBuffer: 2})
	go srv.Serve(cl)

	conn, err := net.DialTimeout("tcp", cl.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Handshake + a burst of padded requests; never read a byte back. The
	// trickled, unread replies must blow the write deadline.
	hello := wire.AppendMsg(nil, wire.Msg{Type: wire.MsgHello, ID: 1,
		Body: wire.EncodeHello(wire.HelloBody{Version: wire.SessionVersion, Protocol: "GMP"})})
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Source: geom.Pt(250, 250), NextHop: geom.Pt(250, 250),
		Dests:   []geom.Point{geom.Pt(60, 420), geom.Pt(420, 60)},
		Payload: make([]byte, 600)}
	frame, err := wire.Encode(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	var burst []byte
	for id := uint64(2); id < 10; id++ {
		burst = wire.AppendMsg(burst, wire.Msg{Type: wire.MsgDecide, ID: id,
			Body: wire.EncodeDecide(wire.DecideBody{Op: wire.OpStart, Frame: frame})})
	}
	conn.Write(burst)

	waitFor(t, func() bool { return srv.Stats().Evicted >= 1 })
	rep := srv.Drain()
	if err := rep.Stats.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Evicted < 1 {
		t.Fatalf("slow client not evicted: %+v", rep.Stats)
	}
}

// --- chaos transport -----------------------------------------------------

// TestChaosTransportSurvival throws corrupted frames and reset storms at
// the daemon, then disables chaos and verifies a clean client gets 100%
// FORWARDS — the E-X13 probe in miniature.
func TestChaosTransportSurvival(t *testing.T) {
	for _, mode := range []ChaosMode{ChaosCorrupt, ChaosReset, ChaosCut} {
		t.Run(mode.String(), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cl := NewChaosListener(ln, ChaosPlan{Mode: mode, Fraction: 1,
				CutAfter: 30, CorruptEvery: 5})
			srv := New(testDeployment(t), Config{Workers: 2})
			go srv.Serve(cl)

			// Hostile phase: every connection is afflicted; whatever happens,
			// the daemon must not die. Transport errors are expected.
			load := RunLoad(LoadConfig{Addr: cl.Addr().String(), Protocol: "GMP",
				Conns: 4, Requests: 10, K: 3, Width: 500, Height: 500, Seed: 3,
				Timeout: 500 * time.Millisecond})
			if cl.Afflicted() == 0 {
				t.Fatal("chaos listener afflicted nothing")
			}
			_ = load

			// Probe phase: chaos off, clean traffic must be perfect.
			cl.Disable()
			probe := RunLoad(LoadConfig{Addr: cl.Addr().String(), Protocol: "GMP",
				Conns: 2, Requests: 10, K: 3, Width: 500, Height: 500, Seed: 4,
				Timeout: 2 * time.Second})
			if probe.Forwards != 20 || probe.TransportErrors != 0 {
				t.Fatalf("post-chaos probe: %+v", probe)
			}
			rep := srv.Drain()
			if err := rep.Stats.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
