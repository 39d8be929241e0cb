package experiment

import (
	"strings"
	"testing"

	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// chaosTestConfig is a minimal campaign: small networks, few plans, two
// protocols — enough to exercise faults, corruption, ARQ and the oracle
// without test-suite-dominating runtime.
func chaosTestConfig() ChaosConfig {
	base := Quick()
	base.Nodes = 150
	base.Networks = 1
	cfg := ChaosConfig{
		Base:         base,
		Plans:        3,
		TasksPerPlan: 2,
		Protos:       []string{ProtoGMP, ProtoGRD},
	}
	return cfg
}

// TestChaosCampaignPasses: the real protocols survive the randomized fault
// schedules with zero oracle violations.
func TestChaosCampaignPasses(t *testing.T) {
	cfg := chaosTestConfig()
	rep, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("oracle violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if want := cfg.Base.Networks * cfg.Plans * len(cfg.Protos); rep.Arms != want {
		t.Fatalf("arms = %d, want %d", rep.Arms, want)
	}
	if want := rep.Arms * cfg.TasksPerPlan; rep.Tasks != want {
		t.Fatalf("tasks = %d, want %d", rep.Tasks, want)
	}
}

// TestChaosCampaignDeterministic: two full runs of the same config render
// identical reports.
func TestChaosCampaignDeterministic(t *testing.T) {
	cfg := chaosTestConfig()
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("chaos report not reproducible:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}

// leakyHandler is the deliberately broken protocol the oracle must catch: at
// the source it silently discards every destination beyond the first — the
// classic conservation bug (destinations vanish without a billed drop).
type leakyHandler struct{}

func (leakyHandler) Name() string { return "LEAKY" }

func (leakyHandler) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	keep := pkt.Sub(pkt.Dests[:1])
	if len(v.Neighbors()) == 0 {
		return nil
	}
	return []sim.Forward{{To: int(v.Neighbors()[0]), Header: keep}}
}

func (leakyHandler) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	target := pkt.Locs[0]
	best, bestD := -1, v.Pos().Dist(target)
	for _, n := range v.Neighbors() {
		if d := v.NbrPos(int(n)).Dist(target); d < bestD {
			best, bestD = int(n), d
		}
	}
	if best == -1 {
		return []sim.Forward{{To: sim.DropCopy, Header: pkt.Header}}
	}
	return []sim.Forward{{To: best, Header: pkt.Header}}
}

// TestChaosOracleCatchesBrokenHandler: a handler that leaks destinations
// must be flagged by the same audit the campaign applies.
func TestChaosOracleCatchesBrokenHandler(t *testing.T) {
	cfg := chaosTestConfig()
	d, err := buildDeployment(cfg.Base, 0)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.GenerateBatch(cfg.Base.seeds().tasks(0, 5), cfg.Base.Nodes, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	en := cfg.Base.engine(d.nw, d.pg)
	caught := false
	for _, task := range tasks {
		m := en.RunTask(leakyHandler{}, task.Source, task.Dests)
		if err := sim.AuditTask(&m, sim.AuditConfig{MaxHops: cfg.Base.MaxHops}); err != nil {
			caught = true
			if !strings.Contains(err.Error(), "conservation") {
				t.Fatalf("expected a conservation violation, got: %v", err)
			}
		}
	}
	if !caught {
		t.Fatal("oracle failed to flag the destination-leaking handler")
	}
}
