package sim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gmp/internal/network"
	"gmp/internal/testutil"
	"gmp/internal/view"
)

// twinSplit is splitHandler declaring redundant copies: its Start launches
// the split twice, so both twins deliver (one delivery, one duplicate per
// destination) or die with the destinations aboard, billed at settlement.
type twinSplit struct{ splitHandler }

func (twinSplit) RedundantCopies() bool { return true }

func (h twinSplit) Start(v view.NodeView, pkt *Packet) []Forward {
	fwds := h.decide(v, pkt)
	return append(fwds, h.decide(v, pkt)...)
}

// TestLaneStateResetsAcrossRuns runs script A and then script B on one
// engine and requires B's results to equal B on a fresh engine, deeply: the
// lanes reuse their slab chunks, index slots and delivery records, so a
// counter, ban, mask, deferred drop, energy share or delivery chain left
// over from A would show in B. The scenario has loss with ARQ give-ups
// (bans and masks), crashes, the per-node energy ledger and a
// RedundantHandler session, at 1 and 2 workers, with A both smaller and
// larger than B.
func TestLaneStateResetsAcrossRuns(t *testing.T) {
	nw, err := network.New(network.DeployUniform(400, 1200, 1200, rand.New(rand.NewSource(29))), 1200, 1200, 150)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tiles() < 2 {
		t.Fatalf("want a multi-tile network, got %d tiles", nw.Tiles())
	}
	plan := FaultPlan{
		LossRate: 0.3, Seed: 5,
		// Node 60, a destination of B, is down for the whole run.
		Crashes: []Crash{{Node: 60, At: 0}, {Node: 10, At: 0.0005, RecoverAt: 0.01}},
	}
	a := []Session{
		{Start: 0, Handler: splitHandler{}, Src: 0, Dests: []int{40, 80, 120, 160, 200, 240, 280, 320, 360}},
		{Start: 0.001, Handler: twinSplit{}, Src: 399, Dests: []int{10, 50, 90, 130, 170}},
		{Start: 0.001, Handler: splitHandler{}, Src: 7, Dests: []int{7, 77, 177, 277, 377}},
		{Start: 0.002, Handler: splitHandler{}, Src: 150, Dests: []int{3, 33, 333}},
	}
	b := []Session{
		{Start: 0, Handler: twinSplit{}, Src: 250, Dests: []int{20, 60, 100, 140, 180, 220}},
		{Start: 0.0005, Handler: splitHandler{}, Src: 399, Dests: []int{10, 90, 190, 290, 390}},
	}
	newEngine := func(shards int) *Engine {
		e := NewEngine(nw, DefaultRadioParams(), 64)
		if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 1, AckBytes: 16}); err != nil {
			t.Fatal(err)
		}
		e.SetEnergyLedger(true)
		shardedOver(t, e, shards)
		return e
	}
	// run installs the fault plan afresh, so every script draws the stream
	// of a first run after SetFaults.
	run := func(e *Engine, script []Session) []SessionMetrics {
		if err := e.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
		return e.RunScript(script)
	}
	if m := run(newEngine(1), b)[0]; m.Dropped[60] != ReasonProtocol {
		t.Fatalf("crashed destination 60: Dropped = %v, want it dropped once its links are banned", m.Dropped)
	}
	for _, shards := range []int{1, 2} {
		for _, order := range [][2][]Session{{a, b}, {b, a}} {
			first, second := order[0], order[1]
			want := run(newEngine(shards), second)
			var giveUps, duplicates, ledger int
			for _, m := range want {
				giveUps += m.LinkFailures
				duplicates += m.DuplicateDeliveries
				ledger += len(m.EnergyByNode)
			}
			if giveUps == 0 || duplicates == 0 || ledger == 0 {
				t.Fatalf("scenario too tame: %d give-ups, %d duplicates, %d ledger entries", giveUps, duplicates, ledger)
			}
			e := newEngine(shards)
			run(e, first)
			if got := run(e, second); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: %d-session script after a %d-session one diverged from a fresh engine:\n got  %+v\n want %+v",
					shards, len(second), len(first), got, want)
			}
		}
	}
}

// TestDeliveryRecordsPerSession: two overlapping sessions deliver the same
// destination node, in one tile, twice each. Each session records its own
// delivery, with its own time, and counts its own duplicate; one session's
// record must not make the other's first arrival a duplicate.
func TestDeliveryRecordsPerSession(t *testing.T) {
	nw := chainNet(t, 3)
	if nw.Tile(0) != nw.Tile(1) {
		t.Fatal("want nodes 0 and 1 in one tile")
	}
	script := []Session{
		{Start: 0, Handler: dupHandler{}, Src: 0, Dests: []int{1}},
		{Start: 0.0001, Handler: dupHandler{}, Src: 0, Dests: []int{1}},
	}
	for _, shards := range []int{0, 2} {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		if shards > 0 {
			shardedOver(t, e, shards)
		}
		ms := e.RunScript(script)
		for i, m := range ms {
			if len(m.Delivered) != 1 || m.Delivered[1] != 1 {
				t.Fatalf("shards=%d session %d: Delivered = %v, want node 1 at hop 1", shards, i, m.Delivered)
			}
			if m.DuplicateDeliveries != 1 {
				t.Fatalf("shards=%d session %d: DuplicateDeliveries = %d, want 1", shards, i, m.DuplicateDeliveries)
			}
			if err := AuditTask(&m.TaskMetrics, AuditConfig{AllowDuplicates: true}); err != nil {
				t.Fatalf("shards=%d session %d: audit: %v", shards, i, err)
			}
		}
		// The half-duplex source sends session 0's two frames before
		// session 1's, so session 1 delivers later.
		if !(ms[0].DeliveredAt[1] < ms[1].DeliveredAt[1]) {
			t.Fatalf("shards=%d: delivery times %v and %v, want session 0 first", shards, ms[0].DeliveredAt, ms[1].DeliveredAt)
		}
	}
}

// TestLaneStateFootprint bounds, in bytes, the session state the kernel's
// lanes keep after a script on a 2·10⁴-node field at the field-sessions
// density (1000 m² per node, 150 m range), with the engine alive: at most
// 96 B per touched (lane, session) pair — the 72 B partial, its chunk's
// slack and the pair's share of the delivery records — plus the 4 B index
// slot of every (lane, session). The state is measured as the heap its
// release frees.
func TestLaneStateFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow memory distorts heap accounting")
	}
	const n, sessions, k = 20_000, 200, 10
	side := math.Sqrt(n * 1000.0)
	r := rand.New(rand.NewSource(17))
	nw, err := network.New(network.DeployUniform(n, side, side, r), side, side, 150)
	if err != nil {
		t.Fatal(err)
	}
	script := make([]Session, sessions)
	for i := range script {
		dests := make([]int, k)
		for j := range dests {
			dests[j] = r.Intn(n)
		}
		script[i] = Session{Start: float64(i) * 0.002, Handler: splitHandler{}, Src: r.Intn(n), Dests: dests}
	}
	e := NewEngine(nw, DefaultRadioParams(), 0)
	shardedOver(t, e, 2)
	ms := e.RunScript(script)
	var pairs, slots, delivered int
	for _, ln := range e.lanes {
		pairs += ln.used
		slots += len(ln.slot)
	}
	for _, m := range ms {
		delivered += len(m.Delivered)
	}
	if pairs < 10*sessions || delivered < sessions*k/2 {
		t.Fatalf("script too small to measure: %d pairs, %d deliveries", pairs, delivered)
	}

	// Two collections empty the packet pool, so the release frees nothing
	// else.
	var held, released runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&held)
	for _, ln := range e.lanes {
		ln.chunks, ln.slot, ln.rare, ln.deliv, ln.used = nil, nil, nil, nil, 0
	}
	runtime.GC()
	runtime.ReadMemStats(&released)
	runtime.KeepAlive(e)
	runtime.KeepAlive(ms)

	bytes := int64(held.HeapAlloc) - int64(released.HeapAlloc)
	bound := int64(96*pairs + 4*slots)
	t.Logf("%d B for %d pairs over %d tiles, %d slots, %d deliveries (%.1f B/pair beyond 4 B/slot)",
		bytes, pairs, nw.Tiles(), slots, delivered, float64(bytes-int64(4*slots))/float64(pairs))
	if bytes > bound {
		t.Errorf("lanes hold %d B of session state, bound %d B (96 B/pair + 4 B/slot)", bytes, bound)
	}
}
