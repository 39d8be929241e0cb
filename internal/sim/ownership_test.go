package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gmp/internal/network"
	"gmp/internal/view"
)

// splitHandler routes greedily and splits as it goes: a copy for one
// destination travels whole toward it; a larger copy sends its tail toward
// the tail's last destination and its first destination off on its own. With
// alias set, the forwards share the arriving packet's storage — the header
// itself, a reslice of it and a Sub of its own Dests; without, every slice
// is a fresh copy. The decisions are the same either way.
type splitHandler struct{ alias bool }

var _ NackHandler = splitHandler{}

func (h splitHandler) Start(v view.NodeView, pkt *Packet) []Forward { return h.decide(v, pkt) }

func (h splitHandler) Decide(v view.NodeView, pkt *Packet) []Forward { return h.decide(v, pkt) }

// Nack re-decides at the sender, whose view masks the dead link.
func (h splitHandler) Nack(v view.NodeView, _ int, pkt *Packet) []Forward { return h.decide(v, pkt) }

func (h splitHandler) decide(v view.NodeView, pkt *Packet) []Forward {
	n := len(pkt.Dests)
	if n == 1 {
		whole := pkt.Header
		if !h.alias {
			whole.Dests, whole.Locs = slices.Clone(pkt.Dests), slices.Clone(pkt.Locs)
		}
		return []Forward{toward(v, whole)}
	}
	tail := pkt.Header
	tail.Dests, tail.Locs = pkt.Dests[1:], pkt.Locs[1:]
	first := pkt.Dests[:1]
	if !h.alias {
		tail.Dests, tail.Locs = slices.Clone(tail.Dests), slices.Clone(tail.Locs)
		first = slices.Clone(first)
	}
	return []Forward{toward(v, tail), toward(v, pkt.Sub(first))}
}

// toward forwards c to the neighbor closest to its last destination,
// provided it is strictly closer than v; otherwise the copy is dropped.
func toward(v view.NodeView, c Header) Forward {
	target := c.Locs[len(c.Locs)-1]
	best, bestD := DropCopy, v.Pos().Dist(target)
	for _, nb := range v.Neighbors() {
		if d := v.NbrPos(int(nb)).Dist(target); d < bestD {
			best, bestD = int(nb), d
		}
	}
	return Forward{To: best, Header: c}
}

// TestForwardsMayAliasTheirPacket pins the ownership rule: the kernel frees
// an in-flight packet only once the forwards of the decision made on it are
// applied, each copied into a packet of its own, so a handler may return
// forwards aliasing the packet it was shown. Handlers returning aliased and
// deep-copied forwards must produce identical metrics, on one worker and on
// two, under loss, ARQ give-ups and churn. A kernel that recycles the packet
// before its forwards are applied lets the first send overwrite the storage
// the later forwards still read.
func TestForwardsMayAliasTheirPacket(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	nw, err := network.New(network.DeployUniform(400, 1200, 1200, r), 1200, 1200, 150)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tiles() < 2 {
		t.Fatalf("want a multi-tile network, got %d tiles", nw.Tiles())
	}
	script := func(alias bool) []Session {
		h := splitHandler{alias: alias}
		return []Session{
			{Start: 0, Handler: h, Src: 0, Dests: []int{40, 80, 120, 160, 200, 240, 280, 320, 360}},
			{Start: 0.001, Handler: h, Src: 399, Dests: []int{10, 50, 90, 130, 170, 210, 250, 290}},
		}
	}
	run := func(alias bool, shards int) []SessionMetrics {
		e := NewEngine(nw, DefaultRadioParams(), 64)
		if err := e.SetFaults(FaultPlan{LossRate: 0.3, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 1, AckBytes: 16}); err != nil {
			t.Fatal(err)
		}
		if err := e.SetChurn(ChurnPlan{
			Joins:  []Membership{{Session: 0, Node: 300, At: 0.004}},
			Leaves: []Membership{{Session: 1, Node: 290, At: 0.003}},
		}); err != nil {
			t.Fatal(err)
		}
		if shards > 0 {
			shardedOver(t, e, shards)
		}
		return e.RunScript(script(alias))
	}
	want := run(false, 0)
	var delivered, giveUps, churned int
	for _, m := range want {
		delivered += len(m.Delivered)
		giveUps += m.LinkFailures
		churned += m.JoinsSpliced + m.DropsByReason[ReasonLeft]
		if err := AuditTask(&m.TaskMetrics, AuditConfig{MaxHops: 64}); err != nil {
			t.Fatalf("audit: %v", err)
		}
	}
	if delivered == 0 || giveUps == 0 || churned == 0 {
		t.Fatalf("scenario too tame: %d delivered, %d ARQ give-ups, %d churn events", delivered, giveUps, churned)
	}
	for _, shards := range []int{0, 2} {
		for _, alias := range []bool{false, true} {
			if got := run(alias, shards); !reflect.DeepEqual(got, want) {
				t.Fatalf("alias=%v shards=%d diverged:\n got  %+v\n want %+v", alias, shards, got, want)
			}
		}
	}
}
