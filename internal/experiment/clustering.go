package experiment

import (
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// ClusteringConfig parameterizes the destination-clustering extension
// experiment (E-X7): the paper evaluates uniformly drawn destinations, but
// its introduction motivates multicast with *groups* — subscribers of a
// shared regional interest. This experiment sweeps the geographic spread of
// the destination cluster and measures how every protocol's total hops
// respond.
type ClusteringConfig struct {
	// Base supplies geometry, density, seeds, tasks and hop budget.
	Base Config
	// Spreads is the sweep of initial cluster radii in meters; a
	// non-positive value means the paper's uniform drawing.
	Spreads []float64
	// K is the destination count per task.
	K int
}

// DefaultClusteringConfig sweeps tight clusters to uniform at Table 1
// density, k=12.
func DefaultClusteringConfig() ClusteringConfig {
	return ClusteringConfig{
		Base:    Default(),
		Spreads: []float64{50, 100, 200, 400, 0},
		K:       12,
	}
}

// QuickClusteringConfig is a scaled-down variant for tests.
func QuickClusteringConfig() ClusteringConfig {
	cc := DefaultClusteringConfig()
	cc.Base = Quick()
	cc.Spreads = []float64{80, 0}
	cc.K = 8
	return cc
}

// RunClustering measures mean total hops per task against the destination
// cluster spread (the last X, 0, denotes uniform drawing and is rendered as
// the field diagonal for plotting sanity). (network × spread) cells run on
// the campaign runner's pool over shared deployments.
func RunClustering(cc ClusteringConfig, protos []string) (*stats.Table, error) {
	if err := cc.Base.Validate(protos); err != nil {
		return nil, err
	}

	bs := newBenches(cc.Base)
	s := cc.Base.seeds()
	grid, err := runCells(newCampaign(cc.Base), cc.Base.Networks, len(cc.Spreads),
		func(netIdx, si int) ([]Tally, error) {
			b, err := bs.bench(netIdx)
			if err != nil {
				return nil, err
			}
			spread := cc.Spreads[si]
			taskR := s.clusterTasks(netIdx, si)
			tasks := make([]workload.Task, cc.Base.TasksPerNet)
			for t := range tasks {
				if spread <= 0 {
					tasks[t], err = workload.Generate(taskR, cc.Base.Nodes, cc.K)
				} else {
					tasks[t], err = workload.GenerateClustered(taskR, b.nw, cc.K, spread)
				}
				if err != nil {
					return nil, err
				}
			}
			cells := make([]Tally, len(protos))
			b.tally(cells, protos, tasks...)
			return cells, nil
		})
	if err != nil {
		return nil, err
	}

	xs := make([]float64, len(cc.Spreads))
	for i, spread := range cc.Spreads {
		if spread <= 0 {
			// Represent "uniform" by the field diagonal.
			xs[i] = cc.Base.Width + cc.Base.Height
		} else {
			xs[i] = spread
		}
	}
	sum := mergeNetworks(grid)
	return protoTable("E-X7: total hops vs destination cluster spread",
		"cluster spread (m)", "mean transmissions/task", xs, protos, func(pi, si int) float64 {
			return sum[si][pi].MeanTransmissions()
		}), nil
}
