package sim

import (
	"math"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/view"
)

func TestRadioParams(t *testing.T) {
	p := DefaultRadioParams()
	// 128 bytes at 1 Mbps = 1.024 ms airtime.
	if got := p.TxTime(); math.Abs(got-1.024e-3) > 1e-12 {
		t.Fatalf("TxTime = %v", got)
	}
	// One transmission heard by 10 listeners: (1.3 + 0.9*10) * t.
	want := (1.3 + 9.0) * 1.024e-3
	if got := p.TxEnergy(10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TxEnergy = %v, want %v", got, want)
	}
	if got := p.TxEnergy(0); math.Abs(got-1.3*1.024e-3) > 1e-12 {
		t.Fatalf("TxEnergy(0) = %v", got)
	}
}

// chainHandler forwards the packet along the node-ID chain 0→1→2→…, a
// minimal protocol for exercising the engine. It discovers the chain end
// from its local view: the last node has no successor neighbor.
type chainHandler struct{}

func (chainHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	return []Forward{{To: v.Self() + 1, Header: pkt.Header}}
}

func (chainHandler) Decide(v view.NodeView, pkt *Packet) []Forward {
	next := v.Self() + 1
	for _, nb := range v.Neighbors() {
		if int(nb) == next {
			return []Forward{{To: next, Header: pkt.Header}}
		}
	}
	return []Forward{{To: DropCopy, Header: pkt.Header}}
}

func chainNet(t *testing.T, n int) *network.Network {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*100, 0)
	}
	nw, err := network.New(network.FromPoints(pts), float64(n)*100, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestEngineChainDelivery(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(chainHandler{}, 0, []int{3, 5})
	if m.Failed() {
		t.Fatal("chain delivery failed")
	}
	if m.Delivered[3] != 3 || m.Delivered[5] != 5 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
	if m.Transmissions != 5 {
		t.Fatalf("Transmissions = %d, want 5", m.Transmissions)
	}
	if m.TotalHops() != 5 {
		t.Fatalf("TotalHops = %d", m.TotalHops())
	}
	if got := m.AvgHopsPerDest(); got != 4 {
		t.Fatalf("AvgHopsPerDest = %v, want 4", got)
	}
	if m.InvalidSends != 0 {
		t.Fatalf("InvalidSends = %d", m.InvalidSends)
	}
	// Virtual time: 5 sequential transmissions at 1.024 ms each.
	if got := e.Now(); math.Abs(got-5*1.024e-3) > 1e-9 {
		t.Fatalf("Now = %v", got)
	}
}

func TestEngineEnergyAccounting(t *testing.T) {
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(chainHandler{}, 0, []int{2})
	// Node 0 has 1 neighbor, node 1 has 2.
	want := DefaultRadioParams().TxEnergy(1) + DefaultRadioParams().TxEnergy(2)
	if math.Abs(m.EnergyJ-want) > 1e-12 {
		t.Fatalf("EnergyJ = %v, want %v", m.EnergyJ, want)
	}
}

func TestEngineHopBudget(t *testing.T) {
	nw := chainNet(t, 10)
	e := NewEngine(nw, DefaultRadioParams(), 4)
	m := e.RunTask(chainHandler{}, 0, []int{9})
	if !m.Failed() {
		t.Fatal("task beyond hop budget must fail")
	}
	if m.Transmissions != 4 {
		t.Fatalf("Transmissions = %d, want 4 (budget)", m.Transmissions)
	}
	if m.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", m.Drops())
	}
}

func TestEngineBudgetBoundaryDelivers(t *testing.T) {
	nw := chainNet(t, 5)
	e := NewEngine(nw, DefaultRadioParams(), 4)
	m := e.RunTask(chainHandler{}, 0, []int{4})
	if m.Failed() {
		t.Fatal("delivery exactly at the budget must succeed")
	}
	if m.Delivered[4] != 4 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
}

// invalidHandler tries to transmit beyond radio range.
type invalidHandler struct{ far int }

func (h invalidHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	return []Forward{
		{To: h.far, Header: pkt.Header},    // far node, out of range
		{To: v.Self(), Header: pkt.Header}, // self
	}
}
func (invalidHandler) Decide(view.NodeView, *Packet) []Forward { return nil }

func TestEngineInvalidSends(t *testing.T) {
	nw := chainNet(t, 10)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(invalidHandler{far: 9}, 0, []int{9})
	if m.InvalidSends != 2 {
		t.Fatalf("InvalidSends = %d, want 2", m.InvalidSends)
	}
	if m.Transmissions != 0 {
		t.Fatalf("Transmissions = %d", m.Transmissions)
	}
	if !m.Failed() {
		t.Fatal("nothing delivered; task must fail")
	}
}

func TestEngineSourceIsDestination(t *testing.T) {
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(chainHandler{}, 0, []int{0, 2})
	if m.Failed() {
		t.Fatal("failed")
	}
	if m.Delivered[0] != 0 {
		t.Fatalf("source self-delivery hops = %d", m.Delivered[0])
	}
	if m.Delivered[2] != 2 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
}

func TestEngineAllDestsAreSource(t *testing.T) {
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(chainHandler{}, 1, []int{1})
	if m.Failed() || m.Transmissions != 0 {
		t.Fatalf("degenerate task: failed=%v tx=%d", m.Failed(), m.Transmissions)
	}
}

// dupHandler sends two copies over different paths to the same destination to
// exercise first-delivery-wins accounting.
type dupHandler struct{}

func (dupHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	// Two direct copies to the same next hop; the second must not
	// double-count the delivery.
	next := v.Self() + 1
	return []Forward{{To: next, Header: pkt.Header}, {To: next, Header: pkt.Header}}
}
func (dupHandler) Decide(view.NodeView, *Packet) []Forward { return nil }

func TestEngineDuplicateDeliveryCountsOnce(t *testing.T) {
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(dupHandler{}, 0, []int{1})
	if len(m.Delivered) != 1 || m.Delivered[1] != 1 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
	if m.Transmissions != 2 {
		t.Fatalf("Transmissions = %d", m.Transmissions)
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Header: Header{Dests: []int{1, 2, 3}, Perimeter: true}, Hops: 2}
	q := p.Clone()
	q.Dests[0] = 99
	q.Hops = 7
	if p.Dests[0] != 1 || p.Hops != 2 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestEngineTracer(t *testing.T) {
	nw := chainNet(t, 4)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	var events []TraceEvent
	e.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	m := e.RunTask(chainHandler{}, 0, []int{3})
	if m.Failed() {
		t.Fatal("failed")
	}
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	for i, ev := range events {
		if ev.From != i || ev.To != i+1 || ev.Hops != i+1 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// Times advance with each transmission.
	if !(events[0].Time < events[1].Time && events[1].Time < events[2].Time) {
		t.Fatalf("times not increasing: %+v", events)
	}
	// Clearing the tracer stops events.
	e.SetTracer(nil)
	e.RunTask(chainHandler{}, 0, []int{3})
	if len(events) != 3 {
		t.Fatal("tracer not cleared")
	}
}

func TestEngineEnergyLedger(t *testing.T) {
	nw := chainNet(t, 4)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(chainHandler{}, 0, []int{3})
	if m.EnergyByNode != nil {
		t.Fatal("ledger should be off by default")
	}
	e.SetEnergyLedger(true)
	m = e.RunTask(chainHandler{}, 0, []int{3})
	if m.EnergyByNode == nil {
		t.Fatal("ledger missing")
	}
	// Conservation: per-node energies sum to the aggregate.
	var sum float64
	for _, j := range m.EnergyByNode {
		sum += j
	}
	if math.Abs(sum-m.EnergyJ) > 1e-12 {
		t.Fatalf("ledger sum %v != aggregate %v", sum, m.EnergyJ)
	}
	// Node 0 transmits once and listens to node 1's transmission.
	p := DefaultRadioParams()
	want0 := p.TxPowerW*p.TxTime() + p.RxPowerW*p.TxTime()
	if math.Abs(m.EnergyByNode[0]-want0) > 1e-12 {
		t.Fatalf("node 0 energy = %v, want %v", m.EnergyByNode[0], want0)
	}
	// Node 3 only listens (to node 2's transmission).
	want3 := p.RxPowerW * p.TxTime()
	if math.Abs(m.EnergyByNode[3]-want3) > 1e-12 {
		t.Fatalf("node 3 energy = %v, want %v", m.EnergyByNode[3], want3)
	}
}

func TestEngineDynamicFrames(t *testing.T) {
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	fixed := e.RunTask(chainHandler{}, 0, []int{2})
	e.SetDynamicFrames(true)
	dyn := e.RunTask(chainHandler{}, 0, []int{2})
	if dyn.Transmissions != fixed.Transmissions {
		t.Fatalf("frame sizing changed transmission count: %d vs %d",
			dyn.Transmissions, fixed.Transmissions)
	}
	// Dynamic frames add header bytes on top of the payload, so energy must
	// strictly increase.
	if dyn.EnergyJ <= fixed.EnergyJ {
		t.Fatalf("dynamic energy %v not above fixed %v", dyn.EnergyJ, fixed.EnergyJ)
	}
	// The ratio is bounded by (payload+maxHeader)/payload. One destination,
	// no perimeter: header = 31 bytes on 128 payload → ≤ 1.25.
	if dyn.EnergyJ > fixed.EnergyJ*1.25 {
		t.Fatalf("dynamic energy %v implausibly high vs %v", dyn.EnergyJ, fixed.EnergyJ)
	}
	e.SetDynamicFrames(false)
	back := e.RunTask(chainHandler{}, 0, []int{2})
	if back.EnergyJ != fixed.EnergyJ {
		t.Fatal("disabling dynamic frames must restore fixed accounting")
	}
}

func TestRadioBytesHelpers(t *testing.T) {
	p := DefaultRadioParams()
	if got := p.TxTimeBytes(p.MessageBytes); math.Abs(got-p.TxTime()) > 1e-15 {
		t.Fatalf("TxTimeBytes inconsistent: %v vs %v", got, p.TxTime())
	}
	if got := p.TxEnergyBytes(p.MessageBytes, 7); math.Abs(got-p.TxEnergy(7)) > 1e-15 {
		t.Fatalf("TxEnergyBytes inconsistent")
	}
	if p.TxEnergyBytes(256, 7) <= p.TxEnergyBytes(128, 7) {
		t.Fatal("bigger frames must cost more")
	}
}

func TestMetricsEmpty(t *testing.T) {
	m := TaskMetrics{Delivered: map[int]int{}, DestCount: 2}
	if got := m.AvgHopsPerDest(); got != 0 {
		t.Fatalf("AvgHopsPerDest on empty = %v", got)
	}
	if !m.Failed() {
		t.Fatal("undelivered task must be failed")
	}
}
