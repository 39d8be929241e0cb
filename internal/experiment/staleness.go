package experiment

import (
	"fmt"

	"gmp/internal/geom"
	"gmp/internal/mobility"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// StalenessConfig parameterizes the location-staleness extension experiment
// (E-X3): nodes move under random waypoint; destination coordinates carried
// in packets were learned T seconds ago (at group-join time), while relay
// nodes know current positions from 1-hop beaconing. Delivery degrades as
// destinations drift away from their advertised locations.
//
// This probes the §2 assumption that "the source node knows the
// destinations prior to the dissemination of the data packet" under the
// MANET dynamics the PBM/LGS baselines were designed for.
type StalenessConfig struct {
	// Base supplies geometry, density, seeds, tasks and hop budget.
	Base Config
	// StalenessSec is the sweep of coordinate ages in seconds.
	StalenessSec []float64
	// Mobility describes the movement model.
	Mobility mobility.Config
	// K is the destination count per task.
	K int
}

// DefaultStalenessConfig sweeps 0–120 s of staleness under pedestrian-to-
// vehicular speeds (1–10 m/s) at Table 1 density.
func DefaultStalenessConfig() StalenessConfig {
	return StalenessConfig{
		Base:         Default(),
		StalenessSec: []float64{0, 10, 30, 60, 120},
		Mobility: mobility.Config{
			Width: 1000, Height: 1000,
			SpeedMin: 1, SpeedMax: 10, Pause: 5,
		},
		K: 12,
	}
}

// QuickStalenessConfig is a scaled-down variant for tests.
func QuickStalenessConfig() StalenessConfig {
	sc := DefaultStalenessConfig()
	sc.Base = Quick()
	sc.StalenessSec = []float64{0, 30, 120}
	sc.K = 6
	return sc
}

// RunStaleness measures per-destination delivery ratio against coordinate
// age for the given protocols. The mobility model advances cumulatively
// across sweep points, so the unit of parallelism is the whole network:
// networks run on the campaign runner's pool via runNetworks and are
// reduced in index order.
func RunStaleness(sc StalenessConfig, protos []string) (*stats.Table, error) {
	if err := sc.Base.Validate(protos); err != nil {
		return nil, err
	}
	if err := sc.Mobility.Validate(); err != nil {
		return nil, err
	}

	nets, err := runNetworks(newCampaign(sc.Base), sc.Base.Networks,
		func(netIdx int) ([][]Tally, error) {
			return runStalenessNetwork(sc, protos, netIdx)
		})
	if err != nil {
		return nil, err
	}

	xs := append([]float64(nil), sc.StalenessSec...)
	sum := mergeNetworks(nets)
	return protoTable("E-X3: delivery ratio vs destination-coordinate staleness",
		"staleness (s)", "delivered destinations fraction", xs, protos, func(pi, si int) float64 {
			return sum[si][pi].DeliveryRatio()
		}), nil
}

// runStalenessNetwork runs network netIdx's whole sweep and returns its
// tallies as [staleness][proto].
func runStalenessNetwork(sc StalenessConfig, protos []string, netIdx int) ([][]Tally, error) {
	s := sc.Base.seeds()
	r := s.deployment(netIdx)
	initial := network.DeployUniform(sc.Base.Nodes, sc.Base.Width, sc.Base.Height, r)
	initPts := make([]geom.Point, len(initial))
	for i, n := range initial {
		initPts[i] = n.Pos
	}
	model, err := mobility.NewRandomWaypoint(initPts, sc.Mobility, r)
	if err != nil {
		return nil, err
	}

	out := make([][]Tally, len(sc.StalenessSec))
	for si := range out {
		out[si] = make([]Tally, len(protos))
	}

	elapsed := 0.0
	for si, staleness := range sc.StalenessSec {
		// Advertised coordinates are the positions at campaign start; the
		// model advances so that the current topology is `staleness`
		// seconds newer.
		if staleness > elapsed {
			model.Step(staleness - elapsed)
			elapsed = staleness
		}
		current := model.Positions()
		nw, err := network.New(network.FromPoints(current), sc.Base.Width, sc.Base.Height, sc.Base.RadioRange)
		if err != nil {
			return nil, fmt.Errorf("staleness network: %w", err)
		}
		pg := planar.Planarize(nw, sc.Base.Planarizer)

		tasks, err := workload.GenerateBatch(s.staleTasks(netIdx, si), sc.Base.Nodes, sc.K, sc.Base.TasksPerNet)
		if err != nil {
			return nil, err
		}
		for _, task := range tasks {
			// The packet carries each destination's stale (initial)
			// coordinates; everything else is current.
			overrides := make(map[int]geom.Point, len(task.Dests))
			for _, d := range task.Dests {
				overrides[d] = initPts[d]
			}
			overlay := nw.WithReportedPositions(overrides)
			b := bench{nw: overlay, en: sc.Base.engine(overlay, pg)}
			b.tally(out[si], protos, task)
		}
	}
	return out, nil
}
