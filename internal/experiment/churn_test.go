package experiment

import (
	"math"
	"strings"
	"testing"

	"gmp/internal/sim"
)

// tinyChurnConfig is a scaled-down sweep for fast determinism checks.
func tinyChurnConfig() ChurnConfig {
	cfg := QuickChurnConfig()
	cfg.Base.Nodes = 150
	cfg.Base.Networks = 1
	cfg.Rates = []float64{0.5}
	cfg.SpeedsMps = []float64{0, 10}
	cfg.Sessions = 2
	cfg.K = 5
	cfg.Protos = []string{ProtoGMP, ProtoLGS}
	return cfg
}

// TestChurnCampaignQuick runs the CI configuration end to end: every arm
// must pass the accounting oracle and its replay, and the campaign must not
// be vacuous — joins actually splice, leaves actually retire, and leases
// actually expire.
func TestChurnCampaignQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("churn campaign in -short mode")
	}
	cfg := QuickChurnConfig()
	rep, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("oracle violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	wantArms := cfg.Base.Networks * len(cfg.Rates) * len(cfg.SpeedsMps) * len(cfg.Protos)
	if rep.Arms != wantArms {
		t.Fatalf("arms = %d, want %d", rep.Arms, wantArms)
	}
	if rep.Tasks == 0 {
		t.Fatal("no sessions ran")
	}
	// Non-vacuity: the standing-churn machinery must actually fire.
	if rep.JoinsSpliced == 0 {
		t.Error("no joins spliced mid-flight")
	}
	if rep.DropsByReason[sim.ReasonLeft] == 0 {
		t.Error("no destinations retired by a leave")
	}
	if rep.Control.Expirations == 0 {
		t.Error("no leases expired at the home node")
	}
	if rep.Control.Messages == 0 || rep.Control.Operations == 0 {
		t.Errorf("control plane unused: %+v", rep.Control)
	}
	// Every sweep point must have routed traffic for every protocol.
	for pt, arms := range rep.Points {
		for pi, a := range arms {
			if a.EligibleDests == 0 {
				t.Errorf("point %d proto %s: no eligible destinations", pt, rep.Protos[pi])
			}
		}
	}
}

// TestChurnWorkerDeterminism: the rendered report is byte-identical for any
// worker count.
func TestChurnWorkerDeterminism(t *testing.T) {
	run := func(workers int) string {
		cfg := tinyChurnConfig()
		cfg.Base.Workers = workers
		rep, err := RunChurn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	if serial, pooled := run(1), run(4); serial != pooled {
		t.Fatalf("report depends on worker count:\n--- workers=1\n%s\n--- workers=4\n%s", serial, pooled)
	}
}

// TestChurnConfigValidate rejects malformed sweeps.
func TestChurnConfigValidate(t *testing.T) {
	if err := tinyChurnConfig().Validate(); err != nil {
		t.Fatalf("tiny config should validate: %v", err)
	}
	cases := map[string]func(*ChurnConfig){
		"no rates":       func(c *ChurnConfig) { c.Rates = nil },
		"no speeds":      func(c *ChurnConfig) { c.SpeedsMps = nil },
		"negative rate":  func(c *ChurnConfig) { c.Rates = []float64{-0.1} },
		"NaN rate":       func(c *ChurnConfig) { c.Rates = []float64{math.NaN()} },
		"negative speed": func(c *ChurnConfig) { c.SpeedsMps = []float64{-5} },
		"Inf speed":      func(c *ChurnConfig) { c.SpeedsMps = []float64{math.Inf(1)} },
		"zero sessions":  func(c *ChurnConfig) { c.Sessions = 0 },
		"k too small":    func(c *ChurnConfig) { c.K = 1 },
		"zero period":    func(c *ChurnConfig) { c.SessionPeriodSec = 0 },
		"NaN period":     func(c *ChurnConfig) { c.SessionPeriodSec = math.NaN() },
		"zero lease":     func(c *ChurnConfig) { c.LeaseSec = 0 },
		"bad beacon":     func(c *ChurnConfig) { c.Beacon.PeriodSec = 0 },
		"bad protocol":   func(c *ChurnConfig) { c.Protos = []string{"nope"} },
	}
	for name, mut := range cases {
		cfg := tinyChurnConfig()
		mut(&cfg)
		if _, err := RunChurn(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
