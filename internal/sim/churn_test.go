package sim

import (
	"math"
	"reflect"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/view"
)

// ttChainAudit audits a chain-task's metrics and fails the test on violation.
func ttChainAudit(t *testing.T, m *TaskMetrics) {
	t.Helper()
	if err := AuditTask(m, AuditConfig{}); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestChurnZeroPlanNoOp(t *testing.T) {
	nw := chainNet(t, 6)
	base := NewEngine(nw, DefaultRadioParams(), 0).RunTask(chainHandler{}, 0, []int{3, 5})

	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{}); err != nil {
		t.Fatal(err)
	}
	if got := e.RunTask(chainHandler{}, 0, []int{3, 5}); !reflect.DeepEqual(base, got) {
		t.Fatalf("zero churn plan drifted from plan-free engine:\n base %+v\n got  %+v", base, got)
	}

	// A motion stream frozen at the deployment positions changes nothing
	// either: every range check passes.
	pts := make([]geom.Point, nw.Len())
	for i := range pts {
		pts[i] = nw.Pos(i)
	}
	e2 := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e2.SetChurn(ChurnPlan{Motion: func(float64) []geom.Point { return pts }}); err != nil {
		t.Fatal(err)
	}
	if got := e2.RunTask(chainHandler{}, 0, []int{3, 5}); !reflect.DeepEqual(base, got) {
		t.Fatalf("static motion drifted from plan-free engine:\n base %+v\n got  %+v", base, got)
	}
}

func TestChurnLeaveRetiresDestination(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	// The copy arrives at node 1 at ~1.024 ms, node 2 at ~2.048 ms. A leave
	// at 1.5 ms retires destination 5 at the node-2 arrival.
	if err := e.SetChurn(ChurnPlan{Leaves: []Membership{{Node: 5, At: 0.0015}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3, 5})
	ttChainAudit(t, &m)
	if _, ok := m.Delivered[5]; ok {
		t.Fatal("left destination 5 was delivered")
	}
	if m.Delivered[3] != 3 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
	if m.DropsByReason[ReasonLeft] != 1 || m.DestDropsByReason[ReasonLeft] != 1 {
		t.Fatalf("ReasonLeft drops = %d/%d, want 1/1",
			m.DropsByReason[ReasonLeft], m.DestDropsByReason[ReasonLeft])
	}
	if got := m.EligibleDests(); got != 1 {
		t.Fatalf("EligibleDests = %d, want 1", got)
	}
	// The retired header stops the copy at node 3: hops 4 and 5 never happen.
	if m.Transmissions != 3 {
		t.Fatalf("Transmissions = %d, want 3", m.Transmissions)
	}
}

// TestChurnLeaverIsNotAFailure: when the only undelivered destination is
// one that left mid-session, the task delivered everything it still owed
// and is not a Figure 15 failure.
func TestChurnLeaverIsNotAFailure(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Leaves: []Membership{{Node: 5, At: 0.0015}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3, 5})
	if len(m.Delivered) != 1 || m.DestCount != 2 || m.EligibleDests() != 1 {
		t.Fatalf("delivered %v of %d (eligible %d), want destination 3 of 2 (eligible 1)",
			m.Delivered, m.DestCount, m.EligibleDests())
	}
	if m.Failed() {
		t.Fatal("task whose only missing destination left counts as failed")
	}
	// A plan-free run that misses a destination still fails.
	m = NewEngine(nw, DefaultRadioParams(), 2).RunTask(chainHandler{}, 0, []int{1, 5})
	if len(m.Delivered) != 1 || !m.Failed() {
		t.Fatalf("hop-budget miss: delivered %v, Failed() = %t, want one delivery and a failure",
			m.Delivered, m.Failed())
	}
}

func TestChurnLeaveAfterDeliveryIsNoop(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	// Destination 1 delivers at ~1.024 ms; the leave fires afterwards and
	// finds nothing aboard to retire.
	if err := e.SetChurn(ChurnPlan{Leaves: []Membership{{Node: 1, At: 0.0015}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{1, 5})
	ttChainAudit(t, &m)
	if len(m.Delivered) != 2 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
	if m.DestDropsByReason[ReasonLeft] != 0 {
		t.Fatalf("retired an already-delivered destination: %+v", m)
	}
}

func TestChurnJoinSplices(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Joins: []Membership{{Node: 5, At: 0.0005}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3})
	ttChainAudit(t, &m)
	if m.DestCount != 2 || m.JoinsSpliced != 1 || m.JoinsMissed != 0 {
		t.Fatalf("DestCount=%d JoinsSpliced=%d JoinsMissed=%d", m.DestCount, m.JoinsSpliced, m.JoinsMissed)
	}
	if m.Delivered[5] != 5 {
		t.Fatalf("spliced join not delivered: %v", m.Delivered)
	}
}

func TestChurnJoinMissedCases(t *testing.T) {
	nw := chainNet(t, 6)

	// After the session completed.
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Joins: []Membership{{Node: 5, At: 1.0}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3})
	ttChainAudit(t, &m)
	if m.JoinsMissed != 1 || m.JoinsSpliced != 0 || m.DestCount != 1 {
		t.Fatalf("late join: %+v", m)
	}

	// Already a member.
	e = NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Joins: []Membership{{Node: 3, At: 0.0005}}}); err != nil {
		t.Fatal(err)
	}
	m = e.RunTask(chainHandler{}, 0, []int{3})
	ttChainAudit(t, &m)
	if m.JoinsMissed != 1 || m.JoinsSpliced != 0 || m.DestCount != 1 {
		t.Fatalf("member join: %+v", m)
	}

	// Leave overtakes the join before any packet passes (same event batch).
	e = NewEngine(nw, DefaultRadioParams(), 0)
	plan := ChurnPlan{
		Joins:  []Membership{{Node: 5, At: 0.0005}},
		Leaves: []Membership{{Node: 5, At: 0.0006}},
	}
	if err := e.SetChurn(plan); err != nil {
		t.Fatal(err)
	}
	m = e.RunTask(chainHandler{}, 0, []int{3})
	ttChainAudit(t, &m)
	if m.JoinsMissed != 1 || m.JoinsSpliced != 0 || m.DestCount != 1 {
		t.Fatalf("cancelled join: %+v", m)
	}
	if m.DestDropsByReason[ReasonLeft] != 0 {
		t.Fatalf("never-spliced join billed as left: %+v", m)
	}

	// A node that left cannot rejoin.
	e = NewEngine(nw, DefaultRadioParams(), 0)
	plan = ChurnPlan{
		Leaves: []Membership{{Node: 5, At: 0.0005}},
		Joins:  []Membership{{Node: 5, At: 0.0015}},
	}
	if err := e.SetChurn(plan); err != nil {
		t.Fatal(err)
	}
	m = e.RunTask(chainHandler{}, 0, []int{3, 5})
	ttChainAudit(t, &m)
	if m.JoinsMissed != 1 || m.DestDropsByReason[ReasonLeft] != 1 {
		t.Fatalf("rejoin after leave: %+v", m)
	}
}

func TestChurnJoinThenLeaveMidFlight(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	// Join fires at the node-1 arrival (spliced), leave at node-2 (retired).
	plan := ChurnPlan{
		Joins:  []Membership{{Node: 5, At: 0.0005}},
		Leaves: []Membership{{Node: 5, At: 0.0015}},
	}
	if err := e.SetChurn(plan); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3})
	ttChainAudit(t, &m)
	if m.JoinsSpliced != 1 || m.DestCount != 2 {
		t.Fatalf("splice: %+v", m)
	}
	if m.DestDropsByReason[ReasonLeft] != 1 {
		t.Fatalf("spliced-then-left not retired: %+v", m)
	}
	if _, ok := m.Delivered[5]; ok {
		t.Fatal("left destination delivered")
	}
}

func TestChurnSourceJoin(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Joins: []Membership{{Node: 0, At: 0.0005}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3})
	ttChainAudit(t, &m)
	if m.JoinsSpliced != 1 || m.DestCount != 2 {
		t.Fatalf("source join: %+v", m)
	}
	if h, ok := m.Delivered[0]; !ok || h != 0 {
		t.Fatalf("source join not delivered at hop 0: %v", m.Delivered)
	}
}

func TestChurnMotionLoss(t *testing.T) {
	nw := chainNet(t, 6)
	base := make([]geom.Point, nw.Len())
	for i := range base {
		base[i] = nw.Pos(i)
	}
	moved := append([]geom.Point(nil), base...)
	moved[3] = geom.Pt(1e6, 1e6)
	// Node 3 walks out of everyone's range just before the 2→3 frame
	// (sent at ~2.048 ms) goes on the air.
	motion := func(t float64) []geom.Point {
		if t >= 0.002 {
			return moved
		}
		return base
	}
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Motion: motion}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(chainHandler{}, 0, []int{3, 5})
	ttChainAudit(t, &m)
	if m.DropsByReason[ReasonLinkLoss] != 1 || m.DestDropsByReason[ReasonLinkLoss] != 2 {
		t.Fatalf("motion loss not billed as link loss: %+v", m)
	}
	if len(m.Delivered) != 0 {
		t.Fatalf("Delivered = %v, want none", m.Delivered)
	}
}

// partialHandler forwards only destination `keep` up the chain, ignoring
// anything else aboard — a stand-in for cores whose frozen routing state
// (e.g. SMT's embedded tree) has no plan for a spliced-in join.
type partialHandler struct{ keep int }

func (h partialHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	return []Forward{{To: v.Self() + 1, Header: pkt.Header}}
}

func (h partialHandler) Decide(v view.NodeView, pkt *Packet) []Forward {
	return []Forward{{To: v.Self() + 1, Header: pkt.Sub([]int{h.keep})}}
}

func TestChurnUncoveredSpliceBilledStranded(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Joins: []Membership{{Node: 5, At: 0.0005}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(partialHandler{keep: 3}, 0, []int{3})
	ttChainAudit(t, &m)
	if m.JoinsSpliced != 1 || m.DestCount != 2 {
		t.Fatalf("splice: %+v", m)
	}
	if m.DropsByReason[ReasonStranded] != 1 || m.DestDropsByReason[ReasonStranded] != 1 {
		t.Fatalf("uncovered spliced dest not billed stranded: %+v", m)
	}
	if m.Delivered[3] != 3 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
}

// twoCopyHandler floods two copies of the packet to node 1 at start, then
// chains each forward — duplicate copies carrying the same destinations, the
// geocast shape that must not double-bill a retirement.
type twoCopyHandler struct{}

func (twoCopyHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	return []Forward{{To: 1, Header: pkt.Header}, {To: 1, Header: pkt.Header}}
}

func (twoCopyHandler) Decide(v view.NodeView, pkt *Packet) []Forward {
	return chainHandler{}.Decide(v, pkt)
}

func TestChurnRetireBilledOncePerDestination(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Leaves: []Membership{{Node: 5, At: 0.0005}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(twoCopyHandler{}, 0, []int{3, 5})
	if m.DropsByReason[ReasonLeft] != 1 || m.DestDropsByReason[ReasonLeft] != 1 {
		t.Fatalf("duplicate copy double-billed the retirement: %+v", m)
	}
	if m.Delivered[3] != 3 || m.DuplicateDeliveries != 1 {
		t.Fatalf("flood delivery: %+v", m)
	}
}

func TestChurnValidate(t *testing.T) {
	nw := chainNet(t, 6)
	bad := []ChurnPlan{
		{Joins: []Membership{{Node: -1, At: 0}}},
		{Joins: []Membership{{Node: 6, At: 0}}},
		{Leaves: []Membership{{Node: 2, At: math.NaN()}}},
		{Leaves: []Membership{{Node: 2, At: math.Inf(1)}}},
		{Joins: []Membership{{Node: 2, At: -0.5}}},
		{Joins: []Membership{{Node: 2, At: 0, Session: -1}}},
		{Motion: func(float64) []geom.Point { return make([]geom.Point, 3) }},
	}
	for i, p := range bad {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		if err := e.SetChurn(p); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
}

func TestChurnSessionBeyondScriptPanics(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Joins: []Membership{{Node: 5, At: 0, Session: 1}}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("churn event beyond the script did not panic")
		}
	}()
	e.RunTask(chainHandler{}, 0, []int{3})
}

func TestChurnDeterminism(t *testing.T) {
	nw := chainNet(t, 6)
	plan := ChurnPlan{
		Joins:  []Membership{{Node: 5, At: 0.0005}, {Node: 4, At: 0.003}},
		Leaves: []Membership{{Node: 3, At: 0.0015}},
	}
	run := func() TaskMetrics {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		if err := e.SetChurn(plan); err != nil {
			t.Fatal(err)
		}
		return e.RunTask(chainHandler{}, 0, []int{2, 3})
	}
	a, b := run(), run()
	ttChainAudit(t, &a)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay drifted:\n a %+v\n b %+v", a, b)
	}
}

// anchoredHandler mimics LGS/LGK: it steers every relay hop toward a
// destination ID stashed in pkt.Anchor, looking up its header location —
// which panics if a retirement ever leaves the anchor dangling.
type anchoredHandler struct{}

func (anchoredHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	pkt.Anchor = pkt.Dests[len(pkt.Dests)-1]
	return anchoredRelay(v, pkt)
}

func (anchoredHandler) Decide(v view.NodeView, pkt *Packet) []Forward {
	if pkt.Anchor == v.Self() {
		pkt.Anchor = pkt.Dests[len(pkt.Dests)-1]
	}
	return anchoredRelay(v, pkt)
}

func anchoredRelay(v view.NodeView, pkt *Packet) []Forward {
	loc := pkt.LocOf(pkt.Anchor)
	if loc.X <= v.Pos().X {
		return []Forward{{To: DropCopy, Header: pkt.Header}}
	}
	return []Forward{{To: v.Self() + 1, Header: pkt.Header}}
}

// TestChurnLeaveOfAnchorReanchors: retiring the destination an anchor-steered
// protocol is relaying toward must re-anchor the copy at the holding node
// (which then re-plans) instead of leaving pkt.Anchor dangling.
func TestChurnLeaveOfAnchorReanchors(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	// Anchor is destination 5. The leave at 0.5 ms fires at the node-1
	// arrival (~1.024 ms): destination 5 is stripped while it is the anchor.
	if err := e.SetChurn(ChurnPlan{Leaves: []Membership{{Node: 5, At: 0.0005}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunTask(anchoredHandler{}, 0, []int{2, 5})
	ttChainAudit(t, &m)
	if m.Delivered[2] != 2 || len(m.Delivered) != 1 {
		t.Fatalf("Delivered = %v, want {2:2}", m.Delivered)
	}
	if m.DropsByReason[ReasonLeft] != 1 || m.DestDropsByReason[ReasonLeft] != 1 {
		t.Fatalf("ReasonLeft drops = %d/%d, want 1/1",
			m.DropsByReason[ReasonLeft], m.DestDropsByReason[ReasonLeft])
	}
	if m.Transmissions != 2 {
		t.Fatalf("Transmissions = %d, want 2", m.Transmissions)
	}
}
