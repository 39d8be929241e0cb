package sim

import (
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/view"
)

// bounce markers carried in Packet.Anchor to steer the blacklist test's
// packet back through the origin after the ARQ give-up.
const (
	bounceOut  = 99 // Nack detour: go to the relay
	bounceBack = 98 // relay: return to the origin
)

// bounceHandler is a scripted handler for the blacklist test. It forwards
// greedily toward its single destination, but its Nack callback detours the
// packet to a relay that sends it straight back to the origin — forcing a
// SECOND greedy decision at the origin after the engine banned the dead
// link. The handler records every neighbor list and choice it sees at the
// origin.
type bounceHandler struct {
	origin, relay int
	seenAtOrigin  [][]int32
	chosen        []int
}

func (h *bounceHandler) greedy(v view.NodeView, pkt *Packet) []Forward {
	target := pkt.Locs[0]
	best, bestD := -1, v.Pos().Dist(target)
	for _, n := range v.Neighbors() {
		if d := v.NbrPos(int(n)).Dist(target); d < bestD {
			best, bestD = int(n), d
		}
	}
	if v.Self() == h.origin {
		h.seenAtOrigin = append(h.seenAtOrigin, append([]int32(nil), v.Neighbors()...))
		h.chosen = append(h.chosen, best)
	}
	if best == -1 {
		return []Forward{{To: DropCopy, Header: pkt.Header}}
	}
	q := pkt.Header
	q.Anchor = -1
	return []Forward{{To: best, Header: q}}
}

func (h *bounceHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	return h.greedy(v, pkt)
}

func (h *bounceHandler) Decide(v view.NodeView, pkt *Packet) []Forward {
	switch pkt.Anchor {
	case bounceOut:
		q := pkt.Header
		q.Anchor = bounceBack
		return []Forward{{To: h.origin, Header: q}}
	case bounceBack:
		return h.greedy(v, pkt)
	}
	return h.greedy(v, pkt)
}

func (h *bounceHandler) Nack(v view.NodeView, to int, pkt *Packet) []Forward {
	q := pkt.Header
	q.Anchor = bounceOut
	return []Forward{{To: h.relay, Header: q}}
}

// TestBlacklistMasksLaterDecisions is the dead-link blacklist contract: after
// an ARQ give-up on a link, no later decision in the same session may select
// the banned neighbor — the engine's views mask it out entirely, not just for
// the one re-routed copy.
func TestBlacklistMasksLaterDecisions(t *testing.T) {
	// Diamond: 0 —— 1 (dead) —— 3, detour 0 —— 2 —— 3. Greedy from 0 toward
	// 3 prefers 1 (on the straight line); the post-ban decision must not.
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
	h := &bounceHandler{origin: 0, relay: 2}
	m := e.RunTask(h, 0, []int{3})

	if m.Failed() {
		t.Fatalf("bounced packet must still deliver: %+v", m)
	}
	if m.LinkFailures != 1 {
		t.Fatalf("LinkFailures = %d, want 1", m.LinkFailures)
	}
	if len(h.seenAtOrigin) != 2 {
		t.Fatalf("origin decided %d times, want 2 (start + post-ban bounce)", len(h.seenAtOrigin))
	}
	if h.chosen[0] != 1 {
		t.Fatalf("pre-ban greedy chose %d, want the dead hop 1", h.chosen[0])
	}
	for _, n := range h.seenAtOrigin[1] {
		if n == 1 {
			t.Fatalf("post-ban view at origin still lists banned neighbor 1: %v", h.seenAtOrigin[1])
		}
	}
	if h.chosen[1] == 1 {
		t.Fatal("post-ban decision selected the blacklisted neighbor")
	}
	if err := AuditTask(&m, AuditConfig{}); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestBlacklistResetsAcrossTasks: the blacklist is per-session state; a new
// task on the same engine starts with a clean slate.
func TestBlacklistResetsAcrossTasks(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(200, 0)}
	nw, err := network.New(network.FromPoints(pts), 300, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetFaults(FaultPlan{Crashes: []Crash{{Node: 1, At: 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 1, AckBytes: 16}); err != nil {
		t.Fatal(err)
	}
	h1 := &bounceHandler{origin: 0, relay: 2}
	if m := e.RunTask(h1, 0, []int{3}); m.LinkFailures != 1 {
		t.Fatalf("first task LinkFailures = %d, want 1", m.LinkFailures)
	}
	// Same engine, fresh task: the first greedy decision must again see
	// neighbor 1 (and fail on it afresh) — no ban leaks across sessions.
	h2 := &bounceHandler{origin: 0, relay: 2}
	m := e.RunTask(h2, 0, []int{3})
	if h2.chosen[0] != 1 {
		t.Fatalf("fresh task's first choice = %d, want 1 (blacklist must reset)", h2.chosen[0])
	}
	if m.LinkFailures != 1 {
		t.Fatalf("second task LinkFailures = %d, want 1", m.LinkFailures)
	}
}
