package experiment

import (
	"gmp/internal/network"
	"gmp/internal/sim"
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// Results bundles the three task-level metrics that Figures 11, 12 and 14
// share one simulation pass for.
type Results struct {
	// TotalHops is Figure 11: mean transmissions per task vs k.
	TotalHops *stats.Table
	// PerDestHops is Figure 12: mean per-destination hop count vs k.
	PerDestHops *stats.Table
	// Energy is Figure 14: mean energy per task in joules vs k.
	Energy *stats.Table
	// FailureRate is the auxiliary fraction of tasks that missed at least
	// one destination, per protocol and k.
	FailureRate *stats.Table
}

// taskMetrics is the per-task sample for one protocol.
type taskMetrics struct {
	totalHops float64
	perDest   float64
	energy    float64
	failed    bool
}

// mainCell is one (network, k) cell's samples: [proto][task].
type mainCell [][]taskMetrics

// RunMain executes the main campaign (the shared workload behind Figures 11,
// 12 and 14) for the given protocols and returns the three result tables.
// (network × k) cells run in parallel on the campaign runner's pool;
// results are reduced in index order, so output is fully deterministic for
// a given Config, independent of Config.Workers.
func RunMain(cfg Config, protos []string) (*Results, error) {
	if err := cfg.Validate(protos); err != nil {
		return nil, err
	}

	bs := newBenches(cfg)
	grid, err := runCells(newCampaign(cfg), cfg.Networks, len(cfg.Ks),
		func(netIdx, ki int) (mainCell, error) {
			b, err := bs.bench(netIdx)
			if err != nil {
				return nil, err
			}
			k := cfg.Ks[ki]
			tasks, err := workload.GenerateBatch(cfg.seeds().tasks(netIdx, k), cfg.Nodes, k, cfg.TasksPerNet)
			if err != nil {
				return nil, err
			}
			cell := make(mainCell, len(protos))
			for pi, proto := range protos {
				samples := make([]taskMetrics, len(tasks))
				for ti, task := range tasks {
					samples[ti] = b.runTask(cfg, proto, task)
				}
				cell[pi] = samples
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	// Reduce: mean over all tasks of all networks, per protocol and k,
	// always in (network, task) index order.
	xs := make([]float64, len(cfg.Ks))
	for i, k := range cfg.Ks {
		xs[i] = float64(k)
	}
	vals := make([]float64, 0, cfg.Networks*cfg.TasksPerNet)
	mk := func(title, ylabel string, pick func(taskMetrics) float64) *stats.Table {
		return protoTable(title, "k", ylabel, xs, protos, func(pi, ki int) float64 {
			vals = vals[:0]
			for netIdx := range grid {
				for _, tm := range grid[netIdx][ki][pi] {
					vals = append(vals, pick(tm))
				}
			}
			return stats.Mean(vals)
		})
	}

	return &Results{
		TotalHops: mk("Figure 11: total number of hops in the multicast tree",
			"mean transmissions/task", func(m taskMetrics) float64 { return m.totalHops }),
		PerDestHops: mk("Figure 12: per-destination hop count",
			"mean hops/destination", func(m taskMetrics) float64 { return m.perDest }),
		Energy: mk("Figure 14: total energy cost",
			"mean energy/task (J)", func(m taskMetrics) float64 { return m.energy }),
		FailureRate: mk("Auxiliary: task failure rate",
			"failed fraction", func(m taskMetrics) float64 {
				if m.failed {
					return 1
				}
				return 0
			}),
	}, nil
}

// protoTable builds a table with one series per protocol over the sweep
// xs: y reduces one (protocol, sweep point) cell across every network.
// Cells are visited protocol-major, sweep point minor.
func protoTable(title, xlabel, ylabel string, xs []float64, protos []string, y func(pi, xi int) float64) *stats.Table {
	t := &stats.Table{Title: title, XLabel: xlabel, YLabel: ylabel, Xs: xs,
		Series: make([]stats.Series, 0, len(protos))}
	for pi, proto := range protos {
		ys := make([]float64, len(xs))
		for xi := range ys {
			ys[xi] = y(pi, xi)
		}
		t.Series = append(t.Series, stats.Series{Label: proto, Y: ys})
	}
	return t
}

// ratio is num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den > 0 {
		return num / den
	}
	return 0
}

// bench holds one network view with an engine over it.
type bench struct {
	nw *network.Network
	en *sim.Engine
}

// tally runs each task under every protocol on b, task-major (one task's
// runs back to back), PBM at fixedLambda, and adds each run to its
// protocol's tally in cells.
func (b *bench) tally(cells []Tally, protos []string, tasks ...workload.Task) {
	for _, task := range tasks {
		for pi, proto := range protos {
			m := b.en.RunTask(makeProtocol(b.nw, proto, fixedLambda), task.Source, task.Dests)
			cells[pi].add(&m)
		}
	}
}

// buildBench deploys network netIdx of the campaign with a private engine.
// Drivers that run many cells per network should share one benches, which
// deploys each network once and builds only the engine per cell.
func buildBench(cfg Config, netIdx int) (*bench, error) { return newBenches(cfg).bench(netIdx) }

// applyFaults installs the campaign's fault plan and ARQ configuration on a
// freshly built engine. The plan's RNG seed and the generated crash
// schedule are derived from the campaign seed and the network index, so
// every deployment faults differently but the whole campaign stays
// reproducible.
func applyFaults(cfg Config, netIdx int, en *sim.Engine) error {
	plan := cfg.Faults
	if plan.Active() || cfg.CrashFraction > 0 {
		if plan.Seed == 0 {
			plan.Seed = cfg.seeds().faultPlan(netIdx)
		}
		if cfg.CrashFraction > 0 {
			r := cfg.seeds().crashes(netIdx)
			count := int(float64(cfg.Nodes) * cfg.CrashFraction)
			perm := r.Perm(cfg.Nodes)
			crashes := make([]sim.Crash, 0, count)
			for _, id := range perm[:count] {
				crashes = append(crashes, sim.Crash{Node: id, At: r.Float64() * 0.02})
			}
			plan.Crashes = append(plan.Crashes, crashes...)
		}
		if err := en.SetFaults(plan); err != nil {
			return err
		}
	}
	return en.SetARQ(cfg.ARQ)
}

// runTask executes one task under the named protocol, applying the paper's
// best-of-λ rule to λ-parameterized protocols (registry FlagLambda).
func (b *bench) runTask(cfg Config, proto string, task workload.Task) taskMetrics {
	if needsLambdaSweep(proto) {
		return b.runBestLambda(proto, cfg.Lambdas, task)
	}
	return toTaskMetrics(b.en.RunTask(makeProtocol(b.nw, proto, 0), task.Source, task.Dests))
}

func toTaskMetrics(m sim.TaskMetrics) taskMetrics {
	return taskMetrics{
		totalHops: float64(m.TotalHops()),
		perDest:   m.AvgHopsPerDest(),
		energy:    m.EnergyJ,
		failed:    m.Failed(),
	}
}

// better reports whether tm should replace cur as PBM's best-of-λ pick.
func (tm taskMetrics) better(cur taskMetrics) bool {
	if tm.failed != cur.failed {
		return !tm.failed
	}
	return tm.totalHops < cur.totalHops
}
