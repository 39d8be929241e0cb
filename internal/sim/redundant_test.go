package sim

import (
	"reflect"
	"testing"

	"gmp/internal/view"
)

// redundantChain chains the packet like chainHandler but declares redundant
// copies and, at start, additionally kills copies per drops — the
// minimal shape of a concurrent protocol whose losing threads die while a
// winning thread still delivers.
type redundantChain struct {
	// drops are the Forward.To drop sentinels emitted at start (DropCopy,
	// DropWatchdog), each carrying the full header.
	drops []int
	// deliver controls whether a live chain copy is launched at all.
	deliver bool
	// copies is the number of live chain copies launched (2 exercises
	// duplicate delivery).
	copies int
}

func (h redundantChain) RedundantCopies() bool { return true }

func (h redundantChain) Start(v view.NodeView, pkt *Packet) []Forward {
	var fwds []Forward
	if h.deliver {
		for c := 0; c < h.copies; c++ {
			fwds = append(fwds, Forward{To: v.Self() + 1, Header: pkt.Header})
		}
	}
	for _, to := range h.drops {
		fwds = append(fwds, Forward{To: to, Header: pkt.Header})
	}
	return fwds
}

func (h redundantChain) Decide(v view.NodeView, pkt *Packet) []Forward {
	return chainHandler{}.Decide(v, pkt)
}

func TestRedundantDropSettlementSkipsDelivered(t *testing.T) {
	// One copy dies immediately with the destination aboard; another copy
	// delivers it. The deferred settlement must not bill the destination —
	// delivered + dropped stays exact.
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(redundantChain{deliver: true, copies: 1, drops: []int{DropCopy}}, 0, []int{3})
	if m.Delivered[3] != 3 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
	if m.DropsByReason[ReasonProtocol] != 1 {
		t.Fatalf("copy drop not counted: %+v", m.DropsByReason)
	}
	if got := m.DroppedDests(); got != 0 {
		t.Fatalf("delivered destination billed as dropped: %d (%v)", got, m.DestDropsByReason)
	}
	if err := AuditTask(&m, AuditConfig{AllowDuplicates: true}); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestRedundantDropSettlementFirstReasonWins(t *testing.T) {
	// Two copies die with different reasons and nothing delivers: the
	// destination is billed exactly once, to the first copy's reason.
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(redundantChain{drops: []int{DropCopy, DropWatchdog}}, 0, []int{3})
	if len(m.Delivered) != 0 {
		t.Fatalf("Delivered = %v, want none", m.Delivered)
	}
	if m.DropsByReason[ReasonProtocol] != 1 || m.DropsByReason[ReasonWatchdog] != 1 {
		t.Fatalf("copy drops: %+v", m.DropsByReason)
	}
	if m.DestDropsByReason[ReasonProtocol] != 1 || m.DestDropsByReason[ReasonWatchdog] != 0 {
		t.Fatalf("first-reason-wins violated: %+v", m.DestDropsByReason)
	}
	if err := AuditTask(&m, AuditConfig{AllowDuplicates: true}); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestRedundantDuplicateDeliveriesAudited(t *testing.T) {
	// Two live copies both reach the destination: one delivery, one
	// duplicate. The audit tolerates that only under AllowDuplicates.
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	m := e.RunTask(redundantChain{deliver: true, copies: 2}, 0, []int{3})
	if m.Delivered[3] != 3 || m.DuplicateDeliveries != 1 {
		t.Fatalf("flood delivery: %+v", m)
	}
	if err := AuditTask(&m, AuditConfig{AllowDuplicates: true}); err != nil {
		t.Fatalf("audit with AllowDuplicates: %v", err)
	}
	if err := AuditTask(&m, AuditConfig{}); err == nil {
		t.Fatal("audit without AllowDuplicates accepted duplicate deliveries")
	}
}

func TestRedundantSettlementMatchesShardedKernel(t *testing.T) {
	// The lane-merged deferred settlement must give the same metrics on the
	// default engine and a 2-worker pool, for every redundant shape.
	nw := chainNet(t, 6)
	shapes := []redundantChain{
		{deliver: true, copies: 1, drops: []int{DropCopy}},
		{drops: []int{DropCopy, DropWatchdog}},
		{deliver: true, copies: 2},
	}
	for si, shape := range shapes {
		sessions := []Session{{Handler: shape, Src: 0, Dests: []int{3, 5}}}
		single := NewEngine(nw, DefaultRadioParams(), 0)
		want := single.RunScript(sessions)
		sharded := NewEngine(nw, DefaultRadioParams(), 0)
		if err := sharded.SetSharding(ShardConfig{Shards: 2,
			Window: Lookahead(DefaultRadioParams(), ARQConfig{})}); err != nil {
			t.Fatal(err)
		}
		got := sharded.RunScript(sessions)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shape %d: sharded metrics diverge:\n%+v\nvs\n%+v", si, want, got)
		}
	}
}
