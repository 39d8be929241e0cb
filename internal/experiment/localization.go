package experiment

import (
	"gmp/internal/planar"
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// LocalizationConfig parameterizes the localization-error extension
// experiment (E-X2): isotropic Gaussian noise is added to every node's
// *reported* position while the radio physics stay truthful, and delivery
// ratio plus total hops are measured per protocol.
//
// The paper's §2 model assumes perfect coordinates ("through an internal
// GPS device or through a separate calibration process"); this experiment
// quantifies how each protocol degrades when that assumption slips.
type LocalizationConfig struct {
	// Base supplies geometry, density, seeds, tasks and hop budget.
	Base Config
	// Sigmas is the sweep of position-noise standard deviations in meters.
	Sigmas []float64
	// K is the destination count per task.
	K int
}

// DefaultLocalizationConfig sweeps 0–40 m of GPS error at Table 1 density.
func DefaultLocalizationConfig() LocalizationConfig {
	return LocalizationConfig{
		Base:   Default(),
		Sigmas: []float64{0, 5, 10, 20, 40},
		K:      12,
	}
}

// QuickLocalizationConfig is a scaled-down variant for tests.
func QuickLocalizationConfig() LocalizationConfig {
	lc := DefaultLocalizationConfig()
	lc.Base = Quick()
	lc.Sigmas = []float64{0, 15, 40}
	lc.K = 6
	return lc
}

// LocalizationResult pairs the two tables the experiment produces.
type LocalizationResult struct {
	// Delivery is the per-destination delivery ratio vs σ.
	Delivery *stats.Table
	// TotalHops is the mean transmissions per task vs σ (successful or
	// not), showing the detour cost of misjudged progress.
	TotalHops *stats.Table
}

// RunLocalization measures protocol behavior under position noise.
// (network × σ) cells run on the campaign runner's pool; each cell perturbs
// the shared deployment's reported positions under its own noise stream and
// replans over the noisy planar graph.
func RunLocalization(lc LocalizationConfig, protos []string) (*LocalizationResult, error) {
	if err := lc.Base.Validate(protos); err != nil {
		return nil, err
	}

	bs := newBenches(lc.Base)
	s := lc.Base.seeds()
	grid, err := runCells(newCampaign(lc.Base), lc.Base.Networks, len(lc.Sigmas),
		func(netIdx, si int) ([]Tally, error) {
			d, err := bs.deployment(netIdx)
			if err != nil {
				return nil, err
			}
			// One stream drives both the noise draw and the task batch, in
			// that order.
			r := s.noise(netIdx, si)
			noisy := d.nw.WithPositionNoise(lc.Sigmas[si], r)
			tasks, err := workload.GenerateBatch(r, lc.Base.Nodes, lc.K, lc.Base.TasksPerNet)
			if err != nil {
				return nil, err
			}
			b := bench{nw: noisy, en: lc.Base.engine(noisy, planar.Planarize(noisy, lc.Base.Planarizer))}
			cells := make([]Tally, len(protos))
			b.tally(cells, protos, tasks...)
			return cells, nil
		})
	if err != nil {
		return nil, err
	}

	xs := append([]float64(nil), lc.Sigmas...)
	sum := mergeNetworks(grid)
	return &LocalizationResult{
		Delivery: protoTable("E-X2: delivery ratio under localization error",
			"sigma (m)", "delivered destinations fraction", xs, protos, func(pi, si int) float64 {
				return sum[si][pi].DeliveryRatio()
			}),
		TotalHops: protoTable("E-X2: total hops under localization error",
			"sigma (m)", "mean transmissions/task", xs, protos, func(pi, si int) float64 {
				return sum[si][pi].MeanTransmissions()
			}),
	}, nil
}
