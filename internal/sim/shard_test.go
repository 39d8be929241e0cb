package sim

import (
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gmp/internal/testutil"
	"gmp/internal/view"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current output")

// backstepChain chains like chainHandler, and on an ARQ give-up hands the
// copy back to the sender's other neighbor (the masked view hides the dead
// one), so the re-route walks back and the chain stalls at the ban.
type backstepChain struct{ chainHandler }

func (backstepChain) Nack(v view.NodeView, to int, pkt *Packet) []Forward {
	for _, nb := range v.Neighbors() {
		if int(nb) != to {
			return []Forward{{To: int(nb), Header: pkt.Header}}
		}
	}
	return nil
}

// shardedOver installs the tiled kernel on a fresh engine with the maximal
// window (the run's lookahead). Call after ARQ is configured, since ARQ can
// shrink the lookahead.
func shardedOver(t *testing.T, e *Engine, shards int) {
	t.Helper()
	if err := e.SetSharding(ShardConfig{Shards: shards, Window: Lookahead(e.Radio(), e.ARQ())}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedChainMatchesLegacy: every worker count must reproduce the
// default engine's results exactly — same transmissions, deliveries, hop
// counts, delivery times, drops and energy (partials merge in tile order
// for every configuration, so even float summation order is shared).
func TestShardedChainMatchesLegacy(t *testing.T) {
	nw := chainNet(t, 12) // spans 2 tiles: cells of 150 m, tile side 600 m
	if nw.Tiles() < 2 {
		t.Fatalf("want a multi-tile network, got %d tiles", nw.Tiles())
	}
	def := NewEngine(nw, DefaultRadioParams(), 0).RunScript(
		[]Session{{Handler: chainHandler{}, Src: 0, Dests: []int{3, 7, 11}}})[0]
	for _, shards := range []int{1, 4} {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		shardedOver(t, e, shards)
		got := e.RunScript([]Session{{Handler: chainHandler{}, Src: 0, Dests: []int{3, 7, 11}}})[0]
		if !reflect.DeepEqual(got, def) {
			t.Fatalf("shards=%d:\n sharded %+v\n default %+v", shards, got, def)
		}
	}
}

// TestShardsDeterminismKernel is the sim-level half of the acceptance
// criterion: a run combining loss, ARQ exhaustion, crashes with recovery,
// membership churn and overlapping sessions must be deeply identical — maps,
// floats, drop taxonomies — for every shard count. The experiment-level half
// (E-X10 arms through the CLI) builds on this.
func TestShardsDeterminismKernel(t *testing.T) {
	nw := chainNet(t, 40) // 7 tiles
	if nw.Tiles() < 4 {
		t.Fatalf("want ≥ 4 tiles, got %d", nw.Tiles())
	}
	run := func(shards int) [][]SessionMetrics {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		if err := e.SetFaults(FaultPlan{
			LossRate: 0.15, Seed: 99,
			Crashes: []Crash{{Node: 20, At: 0.004, RecoverAt: 0.02}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 2, AckBytes: 16}); err != nil {
			t.Fatal(err)
		}
		if err := e.SetChurn(ChurnPlan{
			Joins:  []Membership{{Session: 0, Node: 25, At: 0.003}},
			Leaves: []Membership{{Session: 1, Node: 30, At: 0.010}},
		}); err != nil {
			t.Fatal(err)
		}
		shardedOver(t, e, shards)
		script := []Session{
			{Start: 0, Handler: chainHandler{}, Src: 0, Dests: []int{15, 39}},
			{Start: 0.002, Handler: chainHandler{}, Src: 5, Dests: []int{30, 35}},
		}
		// Two consecutive runs: the per-run fault-stream advance must be
		// shard-stable too.
		return [][]SessionMetrics{e.RunScript(script), e.RunScript(script)}
	}
	want := run(1)
	for _, shards := range []int{2, 3, 8} {
		if got := run(shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverged from shards=1:\n got  %+v\n want %+v", shards, got, want)
		}
	}

	// The same scenario with everything no experiment reaches switched on
	// as well: the energy ledger, dynamic frames, a tracer, a hop budget, an
	// invalid send, a NackHandler re-route, a RedundantHandler session and a
	// duplicated destination. Metrics and trace must be identical for the
	// default engine and every worker count; the transcript is pinned by a
	// golden.
	instrumented := func(shards int) string {
		e := NewEngine(nw, DefaultRadioParams(), 30)
		if err := e.SetFaults(FaultPlan{
			LossRate: 0.15, Seed: 99,
			Crashes: []Crash{
				{Node: 20, At: 0.004, RecoverAt: 0.02},
				{Node: 17, At: 0.001, RecoverAt: 0.03},
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.SetARQ(ARQConfig{Enabled: true, MaxRetries: 2, AckBytes: 16}); err != nil {
			t.Fatal(err)
		}
		if err := e.SetChurn(ChurnPlan{
			Joins: []Membership{
				{Session: 0, Node: 25, At: 0.003},
				{Session: 3, Node: 2, At: 0.004},
				{Session: 4, Node: 36, At: 0.004},
			},
			Leaves: []Membership{
				{Session: 1, Node: 30, At: 0.010},
				{Session: 3, Node: 7, At: 0.002},
			},
		}); err != nil {
			t.Fatal(err)
		}
		if shards > 0 {
			shardedOver(t, e, shards)
		}
		e.SetEnergyLedger(true)
		e.SetDynamicFrames(true)
		var b strings.Builder
		e.SetTracer(func(ev TraceEvent) { fmt.Fprintf(&b, "trace %+v\n", ev) })
		script := []Session{
			{Start: 0, Handler: chainHandler{}, Src: 0, Dests: []int{15, 39}},
			{Start: 0.002, Handler: chainHandler{}, Src: 5, Dests: []int{30, 35}},
			{Start: 0.001, Handler: backstepChain{}, Src: 12, Dests: []int{19, 24}},
			{Start: 0.0015, Handler: redundantChain{deliver: true, copies: 2, drops: []int{DropCopy, DropWatchdog, 38}}, Src: 2, Dests: []int{7, 9}},
			{Start: 0.003, Handler: chainHandler{}, Src: 30, Dests: []int{33, 30, 33, 36}},
		}
		for run := 0; run < 2; run++ {
			for i, m := range e.RunScript(script) {
				fmt.Fprintf(&b, "run %d session %d %+v\n", run, i, m)
			}
		}
		return b.String()
	}
	transcript := instrumented(0)
	for _, shards := range []int{1, 2, 3, 8} {
		if got := instrumented(shards); got != transcript {
			t.Fatalf("shards=%d: instrumented transcript diverged from the default engine's", shards)
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "kernel.golden"), transcript, *update)
}

// TestShardedCrossTileBorder pins the sim-level border case: node 6 sits at
// x=600, exactly on the tile boundary (it belongs to the higher tile), and
// the chain transmission 5→6 crosses tiles through the inbox path. Delivery
// and hop counts must be unaffected.
func TestShardedCrossTileBorder(t *testing.T) {
	nw := chainNet(t, 12)
	if nw.Tile(5) == nw.Tile(6) {
		t.Fatalf("nodes 5 and 6 in the same tile %d; border not crossed", nw.Tile(5))
	}
	e := NewEngine(nw, DefaultRadioParams(), 0)
	shardedOver(t, e, 4)
	m := e.RunTask(chainHandler{}, 0, []int{6, 11})
	if m.Failed() {
		t.Fatalf("cross-border delivery failed: %+v", m)
	}
	if m.Delivered[6] != 6 || m.Delivered[11] != 11 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
	if m.Transmissions != 11 {
		t.Fatalf("Transmissions = %d, want 11", m.Transmissions)
	}
}

// TestShardedAnchorRemoteTileReanchors: the copy's anchor destination (node
// 11, far tile) leaves while the copy is queued for a receiver in the near
// tile. The barrier must re-anchor at the receiver — anchor and receiver in
// different tiles — instead of leaving the anchor dangling (which panics in
// LocOf).
func TestShardedAnchorRemoteTileReanchors(t *testing.T) {
	nw := chainNet(t, 12)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetChurn(ChurnPlan{Leaves: []Membership{{Node: 11, At: 0.0005}}}); err != nil {
		t.Fatal(err)
	}
	shardedOver(t, e, 4)
	if nw.Tile(11) == nw.Tile(1) {
		t.Fatal("anchor and receiver tiles coincide; test is vacuous")
	}
	m := e.RunTask(anchoredHandler{}, 0, []int{2, 11})
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

// TestShardedJoinSplicesIntoRemoteInbox: a join fires while the session's
// only live copy is an in-flight frame that was posted across the tile
// border — it reached the far tile's queue through the inbox. The barrier
// must find that copy and splice the join aboard, and the joiner must then
// be delivered.
func TestShardedJoinSplicesIntoRemoteInbox(t *testing.T) {
	nw := chainNet(t, 12)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	// The frame 5→6 crosses the border, arriving at 6×1.024 ms; the join
	// fires after node 5's arrival (5.12 ms) but before node 6's, so the
	// splice target is exactly the cross-tile posted frame.
	if err := e.SetChurn(ChurnPlan{Joins: []Membership{{Node: 8, At: 0.0058}}}); err != nil {
		t.Fatal(err)
	}
	shardedOver(t, e, 4)
	m := e.RunTask(chainHandler{}, 0, []int{11})
	ttChainAudit(t, &m)
	if m.JoinsSpliced != 1 || m.JoinsMissed != 0 || m.DestCount != 2 {
		t.Fatalf("JoinsSpliced=%d JoinsMissed=%d DestCount=%d", m.JoinsSpliced, m.JoinsMissed, m.DestCount)
	}
	if m.Delivered[8] != 8 || m.Delivered[11] != 11 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
}

// TestSetShardingValidation: out-of-range shard configurations are rejected
// with errors, never silently clamped; the zero config restores the default
// pool; a window exceeding the run's lookahead is a panic at run time.
func TestSetShardingValidation(t *testing.T) {
	nw := chainNet(t, 4)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	bad := []ShardConfig{
		{Shards: 0, Window: 1e-3},
		{Shards: -2, Window: 1e-3},
		{Shards: 2, Window: 0},
		{Shards: 2, Window: -1e-3},
		{Shards: 2, Window: math.NaN()},
		{Shards: 2, Window: math.Inf(1)},
	}
	for _, c := range bad {
		if err := e.SetSharding(c); err == nil {
			t.Fatalf("SetSharding(%+v) accepted", c)
		}
	}
	if err := e.SetSharding(ShardConfig{Shards: 2, Window: 1e-4}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetSharding(ShardConfig{}); err != nil {
		t.Fatal(err)
	}
	if e.Sharding() != (ShardConfig{}) {
		t.Fatal("zero config did not restore the default")
	}

	// Window beyond the lookahead would let one tile outrun another's
	// influence: programming error, caught at run time.
	if err := e.SetSharding(ShardConfig{Shards: 2, Window: 1.0}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("oversized window did not panic")
			}
			if !strings.Contains(r.(string), "lookahead") {
				t.Fatalf("panic = %v", r)
			}
		}()
		e.RunTask(chainHandler{}, 0, []int{3})
	}()
}
