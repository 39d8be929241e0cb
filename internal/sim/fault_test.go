package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/view"
)

func TestFaultPlanLossProb(t *testing.T) {
	p := FaultPlan{LossRate: 0.1, EdgeLoss: 0.6}
	if got := p.lossProb(0, 150); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("lossProb at distance 0 = %v, want the uniform rate", got)
	}
	if got := p.lossProb(150, 150); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("lossProb at full range = %v, want 0.7", got)
	}
	if got := p.lossProb(75, 150); math.Abs(got-(0.1+0.6*0.25)) > 1e-12 {
		t.Fatalf("lossProb at half range = %v", got)
	}
	// The cap.
	if got := (FaultPlan{LossRate: 0.9, EdgeLoss: 0.9}).lossProb(150, 150); got != 1 {
		t.Fatalf("lossProb must cap at 1, got %v", got)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	for _, bad := range []FaultPlan{
		{LossRate: -0.1},
		{LossRate: 1.5},
		{EdgeLoss: -1},
		{EdgeLoss: 2},
		{Crashes: []Crash{{Node: -1}}},
		{Crashes: []Crash{{Node: 99}}},
		{Crashes: []Crash{{Node: 0, At: -5}}},
		// Non-finite values must be rejected, not silently compared away
		// (NaN fails every ordered comparison, so `rate < 0 || rate > 1`
		// style checks let it through).
		{LossRate: math.NaN()},
		{LossRate: math.Inf(1)},
		{EdgeLoss: math.NaN()},
		{EdgeLoss: math.Inf(-1)},
		{Crashes: []Crash{{Node: 0, At: math.NaN()}}},
		{Crashes: []Crash{{Node: 0, At: math.Inf(1)}}},
		{Crashes: []Crash{{Node: 0, At: 1, RecoverAt: math.NaN()}}},
		{Crashes: []Crash{{Node: 0, At: 1, RecoverAt: math.Inf(1)}}},
	} {
		if err := bad.Validate(10); err == nil {
			t.Fatalf("plan %+v must not validate", bad)
		}
	}
	ok := FaultPlan{LossRate: 0.3, EdgeLoss: 0.2, Crashes: []Crash{{Node: 3, At: 1, RecoverAt: 2}}}
	if err := ok.Validate(10); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestARQConfigValidate(t *testing.T) {
	if err := (ARQConfig{Enabled: true, MaxRetries: -1, AckBytes: 16}).Validate(); err == nil {
		t.Fatal("negative MaxRetries must not validate")
	}
	if err := (ARQConfig{Enabled: true, MaxRetries: 1}).Validate(); err == nil {
		t.Fatal("zero AckBytes must not validate")
	}
	// A disabled config is valid regardless of its other fields.
	if err := (ARQConfig{MaxRetries: -7}).Validate(); err != nil {
		t.Fatalf("disabled config rejected: %v", err)
	}
	if err := DefaultARQ().Validate(); err != nil {
		t.Fatalf("DefaultARQ rejected: %v", err)
	}
	for _, bad := range []ARQConfig{
		{Enabled: true, MaxRetries: 1, AckBytes: 16, Timeout: math.NaN()},
		{Enabled: true, MaxRetries: 1, AckBytes: 16, Timeout: math.Inf(1)},
		{Enabled: true, MaxRetries: 1, AckBytes: 16, Backoff: math.NaN()},
		{Enabled: true, MaxRetries: 1, AckBytes: 16, Backoff: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v must not validate", bad)
		}
	}
}

func TestNewEngineNegativeBudgetPanics(t *testing.T) {
	nw := chainNet(t, 3)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("NewEngine(-1) must panic")
		} else if !strings.Contains(r.(string), "hop budget") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	NewEngine(nw, DefaultRadioParams(), -1)
}

// TestFaultsZeroPlanIsStrictNoop is the central compatibility guarantee:
// installing the zero plan and disabled ARQ must leave every metric and the
// virtual clock byte-identical to an untouched engine.
func TestFaultsZeroPlanIsStrictNoop(t *testing.T) {
	nw := chainNet(t, 6)

	plain := NewEngine(nw, DefaultRadioParams(), 0)
	base := plain.RunTask(chainHandler{}, 0, []int{3, 5})
	baseNow := plain.Now()

	faulty := NewEngine(nw, DefaultRadioParams(), 0)
	if err := faulty.SetFaults(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if err := faulty.SetARQ(ARQConfig{}); err != nil {
		t.Fatal(err)
	}
	got := faulty.RunTask(chainHandler{}, 0, []int{3, 5})
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("zero fault plan changed metrics:\n base %+v\n got  %+v", base, got)
	}
	if faulty.Now() != baseNow {
		t.Fatalf("zero fault plan changed virtual time: %v vs %v", faulty.Now(), baseNow)
	}
}

func TestFaultsTotalLossKillsDelivery(t *testing.T) {
	nw := chainNet(t, 4)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetFaults(FaultPlan{LossRate: 1}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3})
	if !m.Failed() || len(m.Delivered) != 0 {
		t.Fatalf("total loss must deliver nothing: %+v", m)
	}
	// The first (and only) frame is transmitted, then lost.
	if m.Transmissions != 1 || m.LossDrops() != 1 {
		t.Fatalf("tx=%d lossDrops=%d, want 1/1", m.Transmissions, m.LossDrops())
	}
	if m.DropsByReason[ReasonLinkLoss] != 1 {
		t.Fatalf("loss must be billed as link-loss: %+v", m.DropsByReason)
	}
	// Energy is still burned on the lost transmission.
	if m.EnergyJ <= 0 {
		t.Fatal("lost frames must still cost energy")
	}
}

func TestFaultsDeterministicPerSeed(t *testing.T) {
	nw := chainNet(t, 8)
	run := func(seed int64) TaskMetrics {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		if err := e.SetFaults(FaultPlan{LossRate: 0.5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return e.RunTask(chainHandler{}, 0, []int{7})
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n %+v\n %+v", a, b)
	}
}

func TestFaultsRunStreamAdvances(t *testing.T) {
	// Successive runs on one engine draw from an advancing stream: with 50%
	// loss on a 7-hop chain, 20 consecutive tasks cannot all fail at the
	// same hop unless the stream were rewound each run.
	nw := chainNet(t, 8)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetFaults(FaultPlan{LossRate: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 20; i++ {
		m := e.RunTask(chainHandler{}, 0, []int{7})
		seen[m.Transmissions] = true
	}
	if len(seen) < 2 {
		t.Fatalf("20 tasks all saw the identical loss pattern: %v", seen)
	}
	// Re-installing the plan rewinds the stream.
	if err := e.SetFaults(FaultPlan{LossRate: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	first := e.RunTask(chainHandler{}, 0, []int{7})
	if err := e.SetFaults(FaultPlan{LossRate: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	again := e.RunTask(chainHandler{}, 0, []int{7})
	if !reflect.DeepEqual(first, again) {
		t.Fatal("SetFaults must rewind the fault stream")
	}
}

func TestFaultsEdgeLossPrefersShortLinks(t *testing.T) {
	// Two parallel 1-hop networks: a 10 m link and a 149 m link under pure
	// edge loss. Over many runs the short link must deliver far more often.
	short := twoNodeNet(t, 10)
	long := twoNodeNet(t, 149)
	deliveries := func(nw *network.Network) int {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		if err := e.SetFaults(FaultPlan{EdgeLoss: 0.9, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := 0; i < 200; i++ {
			if m := e.RunTask(chainHandler{}, 0, []int{1}); !m.Failed() {
				n++
			}
		}
		return n
	}
	ds, dl := deliveries(short), deliveries(long)
	if ds <= dl {
		t.Fatalf("short link delivered %d, long link %d; edge loss must punish long links", ds, dl)
	}
	if ds < 150 {
		t.Fatalf("10 m link under edge loss delivered only %d/200", ds)
	}
	if dl > 60 {
		t.Fatalf("149 m link under 0.9 edge loss delivered %d/200", dl)
	}
}

func twoNodeNet(t *testing.T, d float64) *network.Network {
	t.Helper()
	nw, err := network.New(network.FromPoints([]geom.Point{geom.Pt(0, 0), geom.Pt(d, 0)}), d+1, 10, 150)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestCrashStopsForwardingAndDelivery(t *testing.T) {
	nw := chainNet(t, 4)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	// Node 1 dies immediately: the 0→1 frame is lost, nothing downstream.
	if err := e.SetFaults(FaultPlan{Crashes: []Crash{{Node: 1, At: 0}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{1, 3})
	if len(m.Delivered) != 0 {
		t.Fatalf("crashed relay delivered: %+v", m.Delivered)
	}
	if m.LossDrops() != 1 || m.Transmissions != 1 {
		t.Fatalf("lossDrops=%d tx=%d, want 1/1", m.LossDrops(), m.Transmissions)
	}
	if m.DropsByReason[ReasonCrashedReceiver] != 1 {
		t.Fatalf("crash must be billed as crashed-receiver: %+v", m.DropsByReason)
	}
}

func TestCrashMidTask(t *testing.T) {
	// Node 2 dies after the packet passed it: destination 1 and 2's own
	// delivery happened, 3's did not (2 was mid-chain when it died? no —
	// the crash lands between 1→2 arrival and 2→3 arrival).
	nw := chainNet(t, 4)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	air := DefaultRadioParams().TxTime()
	// 0→1 arrives at 1·air, 1→2 at 2·air, 2→3 at 3·air. Crash node 3 just
	// before its delivery.
	if err := e.SetFaults(FaultPlan{Crashes: []Crash{{Node: 3, At: 2.5 * air}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{2, 3})
	if m.Delivered[2] != 2 {
		t.Fatalf("node 2 must deliver before the crash: %+v", m.Delivered)
	}
	if _, ok := m.Delivered[3]; ok {
		t.Fatal("node 3 crashed before arrival and must not deliver")
	}
}

func TestARQRecoversFromLoss(t *testing.T) {
	nw := chainNet(t, 6)
	plan := FaultPlan{LossRate: 0.4, Seed: 11}

	plainE := NewEngine(nw, DefaultRadioParams(), 0)
	if err := plainE.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	plain := plainE.RunTask(chainHandler{}, 0, []int{5})

	arqE := NewEngine(nw, DefaultRadioParams(), 0)
	if err := arqE.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	if err := arqE.SetARQ(ARQConfig{Enabled: true, MaxRetries: 8, AckBytes: 16}); err != nil {
		t.Fatal(err)
	}
	arq := arqE.RunTask(chainHandler{}, 0, []int{5})

	if arq.Failed() {
		t.Fatalf("ARQ with 8 retries must push through 40%% loss: %+v", arq)
	}
	if arq.Retransmissions == 0 || arq.Acks == 0 {
		t.Fatalf("retrans=%d acks=%d; ARQ machinery did not engage", arq.Retransmissions, arq.Acks)
	}
	// The plain run under the same stream loses the task; ARQ pays for the
	// recovery in extra transmissions and energy.
	if !plain.Failed() {
		t.Fatalf("plain 40%% loss run unexpectedly delivered: %+v", plain)
	}
	if arq.Transmissions <= plain.Transmissions || arq.EnergyJ <= plain.EnergyJ {
		t.Fatalf("ARQ must cost more: tx %d vs %d, energy %v vs %v",
			arq.Transmissions, plain.Transmissions, arq.EnergyJ, plain.EnergyJ)
	}
}

func TestARQAcksMatchReceivedFrames(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetFaults(FaultPlan{LossRate: 0.3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 6, AckBytes: 16}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{5})
	// Frames on the air = received + lost; every received frame is ACKed
	// and every exhausted copy is a LossDrop.
	if m.Acks+m.LossDrops() > m.Transmissions || m.Acks == 0 {
		t.Fatalf("acks=%d lossDrops=%d tx=%d inconsistent", m.Acks, m.LossDrops(), m.Transmissions)
	}
}

func TestARQCostsEnergy(t *testing.T) {
	nw := chainNet(t, 6)
	base := NewEngine(nw, DefaultRadioParams(), 0)
	noArq := base.RunTask(chainHandler{}, 0, []int{5})

	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetARQ(DefaultARQ()); err != nil {
		t.Fatal(err)
	}
	withArq := e.RunTask(chainHandler{}, 0, []int{5})
	if withArq.Failed() || withArq.Transmissions != noArq.Transmissions {
		t.Fatalf("lossless ARQ run changed delivery: %+v", withArq)
	}
	if withArq.Acks != withArq.Transmissions {
		t.Fatalf("acks=%d, want one per received frame (%d)", withArq.Acks, withArq.Transmissions)
	}
	if withArq.EnergyJ <= noArq.EnergyJ {
		t.Fatalf("ACKs must cost energy: %v vs %v", withArq.EnergyJ, noArq.EnergyJ)
	}
}

func TestARQWaitsOutCrashRecovery(t *testing.T) {
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	air := DefaultRadioParams().TxTime()
	// Node 1 is down when the first frame arrives but recovers shortly
	// after; ARQ's backoff must carry the copy across the outage.
	plan := FaultPlan{Crashes: []Crash{{Node: 1, At: 0, RecoverAt: 3 * air}}}
	if err := e.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 4, AckBytes: 16}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{2})
	if m.Failed() {
		t.Fatalf("ARQ must bridge the outage: %+v", m)
	}
	if m.Retransmissions == 0 {
		t.Fatal("recovery without retransmission is impossible here")
	}
}

// nackRecorder is a handler with an alternate route: it first tries the
// direct neighbor, and on NACK reroutes via the detour node.
type nackRecorder struct {
	direct, detour, dest int
	nacks                int
}

func (h *nackRecorder) Start(v view.NodeView, pkt *Packet) []Forward {
	return []Forward{{To: h.direct, Header: pkt.Header}}
}

func (h *nackRecorder) Decide(v view.NodeView, pkt *Packet) []Forward {
	if v.Self() == h.detour {
		return []Forward{{To: h.dest, Header: pkt.Header}}
	}
	return nil
}

func (h *nackRecorder) Nack(v view.NodeView, to int, pkt *Packet) []Forward {
	h.nacks++
	return []Forward{{To: h.detour, Header: pkt.Header}}
}

func TestARQNackReroutesAroundDeadHop(t *testing.T) {
	// Diamond: 0 —— 1 (dead) —— 3, with detour 0 —— 2 —— 3.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(200, 0)}
	nw, err := network.New(network.FromPoints(pts), 300, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetFaults(FaultPlan{Crashes: []Crash{{Node: 1, At: 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 2, AckBytes: 16}); err != nil {
		t.Fatal(err)
	}
	h := &nackRecorder{direct: 1, detour: 2, dest: 3}
	m := e.RunTask(h, 0, []int{3})
	if h.nacks != 1 {
		t.Fatalf("nacks = %d, want 1", h.nacks)
	}
	if m.Failed() {
		t.Fatalf("NACK reroute must deliver: %+v", m)
	}
	// 1 + MaxRetries attempts on the dead link, then 2 detour hops.
	if m.Transmissions != 3+2 {
		t.Fatalf("Transmissions = %d, want 5", m.Transmissions)
	}
	// The rerouted copy survives, so nothing is dropped: the give-up is
	// recorded as a link failure (and the 0→1 link is blacklisted), not as
	// a loss drop.
	if m.LossDrops() != 0 || m.LinkFailures != 1 || m.Retransmissions != 2 {
		t.Fatalf("lossDrops=%d linkFailures=%d retrans=%d",
			m.LossDrops(), m.LinkFailures, m.Retransmissions)
	}
}

func TestARQNoNackWithoutInterface(t *testing.T) {
	// chainHandler does not implement NackHandler; exhausted retries just
	// drop the copy without panicking.
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetFaults(FaultPlan{Crashes: []Crash{{Node: 1, At: 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 1, AckBytes: 16}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{2})
	if !m.Failed() || m.LossDrops() != 1 || m.Retransmissions != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.DropsByReason[ReasonARQExhausted] != 1 || m.LinkFailures != 1 {
		t.Fatalf("exhausted retries must bill arq-exhausted: %+v", m)
	}
}
