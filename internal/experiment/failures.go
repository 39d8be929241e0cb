package experiment

import (
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// FailureConfig parameterizes the Figure 15 experiment: the density sweep.
type FailureConfig struct {
	// Base carries region size, radio range, seeds, hop budget and task
	// counts; its Nodes field is overridden by NodeCounts.
	Base Config
	// NodeCounts is the density sweep (paper: 1000, 800, 600, 400).
	NodeCounts []int
	// K is the destination count per task (paper: 12).
	K int
}

// DefaultFailureConfig reproduces the paper's §5.4 setup: 1000 tasks
// (100 × 10 networks) of 12 destinations at each density, hop budget 100.
//
// The sweep extends below the paper's 400-node floor: under this library's
// ideal (collision-free) MAC, the paper's own densities produce essentially
// zero failures — the ns-2 802.11 losses that drove part of its Figure 15
// don't exist here — while geometric voids, the phenomenon §5.4 analyzes,
// appear in force once average degree drops below ~15 (≲300 nodes). See
// DESIGN.md §3. RunLoss (loss.go) restores the missing loss axis directly:
// it injects per-link Bernoulli loss at the paper's density and measures the
// same failure metric, with and without hop-by-hop ARQ.
func DefaultFailureConfig() FailureConfig {
	return FailureConfig{
		Base:       Default(),
		NodeCounts: []int{150, 200, 250, 300, 400, 600, 800, 1000},
		K:          12,
	}
}

// QuickFailureConfig is a scaled-down variant for tests.
func QuickFailureConfig() FailureConfig {
	fc := DefaultFailureConfig()
	fc.Base = Quick()
	fc.NodeCounts = []int{250, 400}
	fc.K = 6
	return fc
}

// RunFailures counts failed tasks per protocol at each density (Figure 15).
// The reported value is the number of failed tasks out of all tasks run at
// that density (Networks × TasksPerNet). (network × density) cells run on
// the campaign runner's pool; each density deploys fresh networks under its
// own sub-campaign seed.
func RunFailures(fc FailureConfig, protos []string) (*stats.Table, error) {
	if err := fc.Base.Validate(protos); err != nil {
		return nil, err
	}

	grid, err := runCells(newCampaign(fc.Base), fc.Base.Networks, len(fc.NodeCounts),
		func(netIdx, di int) ([]Tally, error) {
			cfg := fc.Base
			cfg.Nodes = fc.NodeCounts[di]
			// Mix the density into the seed so each density sweeps fresh
			// deployments, as the paper generates 10 networks per size.
			cfg.Seed = fc.Base.seeds().density(di)
			b, err := buildBench(cfg, netIdx)
			if err != nil {
				return nil, err
			}
			tasks, err := workload.GenerateBatch(cfg.seeds().tasks(netIdx, fc.K), cfg.Nodes, fc.K, cfg.TasksPerNet)
			if err != nil {
				return nil, err
			}
			cells := make([]Tally, len(protos))
			for pi, proto := range protos {
				for _, task := range tasks {
					m := b.en.RunTask(makeProtocol(b.nw, proto, fixedLambda), task.Source, task.Dests)
					cells[pi].add(&m)
				}
			}
			return cells, nil
		})
	if err != nil {
		return nil, err
	}

	xs := make([]float64, len(fc.NodeCounts))
	for i, n := range fc.NodeCounts {
		xs[i] = float64(n)
	}
	sum := mergeNetworks(grid)
	return protoTable("Figure 15: number of failed tasks for different network densities",
		"nodes", "failed tasks", xs, protos, func(pi, di int) float64 {
			return float64(sum[di][pi].FailedTasks)
		}), nil
}

// lambdaCell is one (network, λ) cell's raw samples.
type lambdaCell struct {
	totals, perDest []float64
}

// LambdaSweep reports PBM's mean total hops and per-destination hops for
// each λ at a fixed k — the ablation behind the paper's §5.1/5.2 discussion
// of the trade-off parameter. (network × λ) cells run in parallel over
// shared deployments.
func LambdaSweep(cfg Config, k int) (*stats.Table, error) {
	if err := cfg.Validate([]string{ProtoPBM}); err != nil {
		return nil, err
	}

	bs := newBenches(cfg)
	grid, err := runCells(newCampaign(cfg), cfg.Networks, len(cfg.Lambdas),
		func(netIdx, li int) (lambdaCell, error) {
			b, err := bs.bench(netIdx)
			if err != nil {
				return lambdaCell{}, err
			}
			tasks, err := workload.GenerateBatch(cfg.seeds().tasks(netIdx, k), cfg.Nodes, k, cfg.TasksPerNet)
			if err != nil {
				return lambdaCell{}, err
			}
			cell := lambdaCell{
				totals:  make([]float64, len(tasks)),
				perDest: make([]float64, len(tasks)),
			}
			p := makeProtocol(b.nw, ProtoPBM, cfg.Lambdas[li])
			for ti, task := range tasks {
				m := b.en.RunTask(p, task.Source, task.Dests)
				cell.totals[ti] = float64(m.TotalHops())
				cell.perDest[ti] = m.AvgHopsPerDest()
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	xs := append([]float64(nil), cfg.Lambdas...)
	totalY := make([]float64, len(cfg.Lambdas))
	pdY := make([]float64, len(cfg.Lambdas))
	vals := make([]float64, 0, cfg.Networks*cfg.TasksPerNet)
	reduce := func(li int, pick func(lambdaCell) []float64) float64 {
		vals = vals[:0]
		for netIdx := range grid {
			vals = append(vals, pick(grid[netIdx][li])...)
		}
		return stats.Mean(vals)
	}
	for li := range cfg.Lambdas {
		totalY[li] = reduce(li, func(c lambdaCell) []float64 { return c.totals })
		pdY[li] = reduce(li, func(c lambdaCell) []float64 { return c.perDest })
	}
	return &stats.Table{
		Title:  "Ablation A-3: PBM λ trade-off",
		XLabel: "lambda",
		YLabel: "mean hops",
		Xs:     xs,
		Series: []stats.Series{
			{Label: "total hops", Y: totalY},
			{Label: "per-dest hops", Y: pdY},
		},
	}, nil
}
