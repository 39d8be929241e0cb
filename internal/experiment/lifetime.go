package experiment

import (
	"gmp/internal/planar"
	"gmp/internal/stats"
)

// LifetimeConfig parameterizes the network-lifetime extension experiment
// (E-X4): every node starts with a fixed energy budget; a stream of
// multicast tasks drains transmit energy at senders and receive energy at
// all listeners (the §5.3 model, accounted per node); nodes that exhaust
// their budget die and the topology degrades until tasks start failing.
//
// This turns the paper's Figure 14 comparison into the metric deployments
// actually care about: how many multicasts the network survives.
type LifetimeConfig struct {
	// Base supplies geometry, density, seeds and hop budget.
	Base Config
	// BatteriesJ is the sweep of per-node energy budgets in joules.
	BatteriesJ []float64
	// K is the destination count per task.
	K int
	// MaxTasks caps the stream per battery level (safety bound).
	MaxTasks int
}

// DefaultLifetimeConfig sweeps 1–4 J batteries at Table 1 density. For
// scale: one 12-destination GMP task drains ≈0.06 J from a busy node, so
// these budgets correspond to lifetimes of tens to hundreds of tasks.
func DefaultLifetimeConfig() LifetimeConfig {
	return LifetimeConfig{
		Base:       Default(),
		BatteriesJ: []float64{1, 2, 4},
		K:          12,
		MaxTasks:   20000,
	}
}

// QuickLifetimeConfig is a scaled-down variant for tests.
func QuickLifetimeConfig() LifetimeConfig {
	lc := DefaultLifetimeConfig()
	lc.Base = Quick()
	lc.BatteriesJ = []float64{0.5, 1}
	lc.K = 6
	lc.MaxTasks = 3000
	return lc
}

// LifetimeResult bundles the two lifetime tables.
type LifetimeResult struct {
	// FirstDeath is the mean number of tasks completed before the first
	// node exhausts its battery.
	FirstDeath *stats.Table
	// FirstFailure is the mean number of tasks completed before the first
	// task misses a destination.
	FirstFailure *stats.Table
}

// lifeCell is one (battery, protocol) stream's outcome on one network.
type lifeCell struct{ death, fail int }

// RunLifetime measures network lifetime in tasks for each protocol and
// battery budget, averaged over the campaign's deployments. Each
// (network × battery × protocol) stream is one cell on the campaign
// runner's pool; streams on the same network share its deployment.
func RunLifetime(lc LifetimeConfig, protos []string) (*LifetimeResult, error) {
	if err := lc.Base.Validate(protos); err != nil {
		return nil, err
	}

	bs := newBenches(lc.Base)
	points := len(lc.BatteriesJ) * len(protos)
	grid, err := runCells(newCampaign(lc.Base), lc.Base.Networks, points,
		func(netIdx, pt int) (lifeCell, error) {
			bi, pi := pt/len(protos), pt%len(protos)
			death, fail, err := runLifetimeStream(lc, bs, protos[pi], lc.BatteriesJ[bi], netIdx)
			if err != nil {
				return lifeCell{}, err
			}
			return lifeCell{death: death, fail: fail}, nil
		})
	if err != nil {
		return nil, err
	}

	xs := append([]float64(nil), lc.BatteriesJ...)
	mk := func(title string, pick func(lifeCell) int) *stats.Table {
		return protoTable(title, "battery (J)", "tasks", xs, protos, func(pi, bi int) float64 {
			sum := 0
			for netIdx := range grid {
				sum += pick(grid[netIdx][bi*len(protos)+pi])
			}
			return float64(sum) / float64(lc.Base.Networks)
		})
	}
	return &LifetimeResult{
		FirstDeath: mk("E-X4: tasks until first node death",
			func(c lifeCell) int { return c.death }),
		FirstFailure: mk("E-X4: tasks until first delivery failure",
			func(c lifeCell) int { return c.fail }),
	}, nil
}

// runLifetimeStream drives one protocol's task stream on one deployment
// until the first delivery failure (or MaxTasks) and reports when the first
// node died and when the first task failed.
func runLifetimeStream(lc LifetimeConfig, bs *benches, proto string, batteryJ float64, netIdx int) (firstDeath, firstFailure int, err error) {
	d, err := bs.deployment(netIdx)
	if err != nil {
		return 0, 0, err
	}
	base := d.nw

	remaining := make([]float64, lc.Base.Nodes)
	for i := range remaining {
		remaining[i] = batteryJ
	}

	nw := base
	en := lc.Base.engine(nw, d.pg)
	en.SetEnergyLedger(true)
	var dead []int

	taskR := lc.Base.seeds().lifetimeTasks(netIdx)
	firstDeath, firstFailure = lc.MaxTasks, lc.MaxTasks
	for taskNo := 1; taskNo <= lc.MaxTasks; taskNo++ {
		alive := nw.AliveIDs()
		if len(alive) < lc.K+1 {
			if firstFailure == lc.MaxTasks {
				firstFailure = taskNo
			}
			break
		}
		src, dests := pickAliveTask(taskR, alive, lc.K)
		m := en.RunTask(makeProtocol(nw, proto, fixedLambda), src, dests)
		if m.Failed() && firstFailure == lc.MaxTasks {
			firstFailure = taskNo
			break
		}

		died := false
		for id, spent := range m.EnergyByNode {
			if remaining[id] <= 0 {
				continue
			}
			remaining[id] -= spent
			if remaining[id] <= 0 {
				dead = append(dead, id)
				died = true
				if firstDeath == lc.MaxTasks {
					firstDeath = taskNo
				}
			}
		}
		if died {
			nw = base.WithFailures(dead)
			en = lc.Base.engine(nw, planar.Planarize(nw, lc.Base.Planarizer))
			en.SetEnergyLedger(true)
		}
	}
	return firstDeath, firstFailure, nil
}
