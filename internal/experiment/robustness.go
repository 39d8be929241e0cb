package experiment

import (
	"math/rand"

	"gmp/internal/planar"
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// RobustnessConfig parameterizes the node-failure extension experiment
// (E-X1): random radio failures are injected into a Table 1 deployment and
// the per-destination delivery ratio is measured per protocol.
//
// The paper motivates GMP's statelessness with exactly this scenario —
// "topology changes, node failures, and group membership changes can render
// … maintaining a distributed tree or mesh structure unacceptably high" (§1)
// — but does not evaluate it; this experiment closes that gap.
type RobustnessConfig struct {
	// Base supplies geometry, density, seeds, tasks and hop budget.
	Base Config
	// FailFractions is the sweep of failed-node fractions.
	FailFractions []float64
	// K is the destination count per task.
	K int
}

// DefaultRobustnessConfig sweeps 0–50% failures at a 300-node density
// (average degree ≈ 21). Table 1's 1000 nodes are so dense that even 30%
// failures leave every task deliverable; the informative regime is where
// failures push the survivors toward the connectivity threshold.
func DefaultRobustnessConfig() RobustnessConfig {
	cfg := Default()
	cfg.Nodes = 300
	return RobustnessConfig{
		Base:          cfg,
		FailFractions: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		K:             12,
	}
}

// QuickRobustnessConfig is a scaled-down variant for tests.
func QuickRobustnessConfig() RobustnessConfig {
	rc := DefaultRobustnessConfig()
	rc.Base = Quick()
	rc.FailFractions = []float64{0, 0.15, 0.3}
	rc.K = 6
	return rc
}

// RunRobustness measures the mean per-destination delivery ratio under each
// failure fraction. Sources and destinations are drawn from the surviving
// nodes, so the metric isolates routing resilience from dead endpoints.
// (network × fraction) cells run on the campaign runner's pool; each cell
// degrades the shared deployment under its own failure-pick stream.
func RunRobustness(rc RobustnessConfig, protos []string) (*stats.Table, error) {
	if err := rc.Base.Validate(protos); err != nil {
		return nil, err
	}

	bs := newBenches(rc.Base)
	s := rc.Base.seeds()
	grid, err := runCells(newCampaign(rc.Base), rc.Base.Networks, len(rc.FailFractions),
		func(netIdx, fi int) ([]Tally, error) {
			d, err := bs.deployment(netIdx)
			if err != nil {
				return nil, err
			}
			// One stream drives the failure pick and then the task draws.
			r := s.failures(netIdx, fi)
			degraded := d.nw.WithFailures(pickFailures(r, rc.Base.Nodes, rc.FailFractions[fi]))
			alive := degraded.AliveIDs()
			tasks := make([]workload.Task, rc.Base.TasksPerNet)
			for t := range tasks {
				tasks[t].Source, tasks[t].Dests = pickAliveTask(r, alive, rc.K)
			}
			b := bench{nw: degraded, en: rc.Base.engine(degraded, planar.Planarize(degraded, rc.Base.Planarizer))}
			cells := make([]Tally, len(protos))
			b.tally(cells, protos, tasks...)
			return cells, nil
		})
	if err != nil {
		return nil, err
	}

	xs := append([]float64(nil), rc.FailFractions...)
	sum := mergeNetworks(grid)
	return protoTable("E-X1: delivery ratio under random node failures",
		"failed fraction", "delivered destinations fraction", xs, protos, func(pi, fi int) float64 {
			return sum[fi][pi].DeliveryRatio()
		}), nil
}

// pickFailures selects ⌊n·frac⌋ distinct node IDs to fail.
func pickFailures(r *rand.Rand, n int, frac float64) []int {
	count := int(float64(n) * frac)
	perm := r.Perm(n)
	return perm[:count]
}

// pickAliveTask draws a source and k distinct destinations from the alive
// node set (k is clamped to the available population).
func pickAliveTask(r *rand.Rand, alive []int, k int) (int, []int) {
	if k > len(alive)-1 {
		k = len(alive) - 1
	}
	perm := r.Perm(len(alive))
	src := alive[perm[0]]
	dests := make([]int, 0, k)
	for _, idx := range perm[1 : k+1] {
		dests = append(dests, alive[idx])
	}
	return src, dests
}
