package experiment

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"gmp/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current output")

// TestShardsDeterminism is the experiment-level half of the PR's acceptance
// criterion: every E-X10 quick arm — including the loss+ARQ+crash+churn arm —
// must produce a byte-identical deterministic fingerprint for shard counts
// 1, 2, 4 and 8. (The sim-level half, TestShardsDeterminismKernel, pins the
// kernel's full metrics structs; this pins the sweep the CLI actually runs.)
func TestShardsDeterminism(t *testing.T) {
	cfg := QuickScaleConfig()
	if !cfg.FaultArm {
		t.Fatal("quick config must include the fault arm")
	}
	run := func(shards int) *ScaleReport {
		cfg.Shards = shards
		rep, err := RunScale(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return rep
	}
	base := run(1)
	want := base.Fingerprint()
	// The shards=1 fingerprint is itself pinned, so a kernel change that
	// moves every shard count in lockstep still shows.
	testutil.Golden(t, filepath.Join("testdata", "scale_quick_fingerprint.golden"), want, *update)
	for _, shards := range []int{2, 4, 8} {
		if got := run(shards).Fingerprint(); got != want {
			t.Fatalf("fingerprint diverged at shards=%d:\n got:\n%s\n want:\n%s", shards, got, want)
		}
	}

	// The sweep must actually exercise what it claims to: multi-tile
	// deployments, deliveries, and — on the fault arm — ARQ retries and
	// membership churn. And the accounting oracle must pass on every arm.
	wantArms := len(cfg.NodeCounts)*len(cfg.Protos) + 1
	if len(base.Arms) != wantArms {
		t.Fatalf("arms = %d, want %d", len(base.Arms), wantArms)
	}
	var faulted *ScaleArm
	for i := range base.Arms {
		a := &base.Arms[i]
		if len(a.Violations) != 0 {
			t.Errorf("arm n=%d %s faulted=%t: %d oracle violations, first: %s",
				a.Nodes, a.Proto, a.Faulted, len(a.Violations), a.Violations[0])
		}
		if a.Tiles < 2 {
			t.Errorf("arm n=%d: %d tiles — no cross-tile traffic to shard", a.Nodes, a.Tiles)
		}
		if a.DeliveredDests == 0 || a.Transmissions == 0 {
			t.Errorf("arm n=%d %s faulted=%t delivered nothing", a.Nodes, a.Proto, a.Faulted)
		}
		if a.Faulted {
			faulted = a
		}
	}
	if faulted == nil {
		t.Fatal("no fault arm in report")
	}
	if faulted.Retransmissions == 0 {
		t.Error("fault arm saw no ARQ retransmissions")
	}
	if faulted.JoinsSpliced+faulted.JoinsMissed == 0 ||
		faulted.DestDropsByReason[0] < 0 { // index use keeps the import honest
		t.Error("fault arm exercised no membership churn")
	}

	out := base.Render()
	for _, want := range []string{"E-X10", "hops/s", "oracle  PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(base.Fingerprint(), "hops/s") {
		t.Error("fingerprint leaks performance fields")
	}
}

// TestScaleConfigValidate: out-of-range sweeps are rejected with errors,
// never clamped.
func TestScaleConfigValidate(t *testing.T) {
	mut := []func(*ScaleConfig){
		func(c *ScaleConfig) { c.NodeCounts = nil },
		func(c *ScaleConfig) { c.NodeCounts = []int{1} },
		func(c *ScaleConfig) { c.NodeCounts = []int{3000, 1200} },
		func(c *ScaleConfig) { c.NodeCounts = []int{1200, 1200} },
		func(c *ScaleConfig) { c.AreaPerNodeM2 = 0 },
		func(c *ScaleConfig) { c.RadioRange = -1 },
		func(c *ScaleConfig) { c.K = 0 },
		func(c *ScaleConfig) { c.Sessions = 0 },
		func(c *ScaleConfig) { c.SessionIntervalSec = -1 },
		func(c *ScaleConfig) { c.MaxHops = -1 },
		func(c *ScaleConfig) { c.Shards = -2 },
		func(c *ScaleConfig) { c.Protos = nil },
		func(c *ScaleConfig) { c.Protos = []string{"Geocast"} },
	}
	for i, m := range mut {
		cfg := QuickScaleConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
	if err := QuickScaleConfig().Validate(); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
	if err := DefaultScaleConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}
