package experiment

import (
	"gmp/internal/sim"
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// LossConfig parameterizes the link-loss sweep: "Figure 15 under loss".
// The paper's Figure 15 failure counts were partly driven by ns-2's 802.11
// losses, which the library's ideal MAC cannot reproduce (DESIGN.md §3);
// this experiment restores that axis by injecting Bernoulli per-link loss
// at the paper's own density and measuring failed tasks per protocol, with
// and without hop-by-hop ARQ.
type LossConfig struct {
	// Base carries geometry, density, seeds, hop budget and task counts.
	Base Config
	// LossRates is the per-link loss probability sweep.
	LossRates []float64
	// K is the destination count per task (paper §5.4: 12).
	K int
	// ARQ is the acknowledgement configuration used by the "+arq" series.
	// Its Enabled flag is ignored (the sweep always runs both arms).
	ARQ sim.ARQConfig
}

// DefaultLossConfig sweeps loss 0–30% at the paper's Table 1 density. At
// 1000 nodes the ideal MAC produces essentially zero failures, so every
// failure in this table is loss-driven — the cleanest view of what the
// ideal-MAC substitution hides.
func DefaultLossConfig() LossConfig {
	return LossConfig{
		Base:      Default(),
		LossRates: []float64{0, 0.05, 0.1, 0.2, 0.3},
		K:         12,
		ARQ:       sim.DefaultARQ(),
	}
}

// QuickLossConfig is a scaled-down variant for tests.
func QuickLossConfig() LossConfig {
	lc := DefaultLossConfig()
	lc.Base = Quick()
	lc.LossRates = []float64{0, 0.15, 0.3}
	lc.K = 6
	return lc
}

// LossResults carries the sweep's three views. Each table has two series
// per protocol: "P" (plain) and "P+arq" (hop-by-hop acknowledgements).
type LossResults struct {
	// Failures counts failed tasks (out of Networks × TasksPerNet) per loss
	// rate — the Figure 15 metric with loss on the x-axis.
	Failures *stats.Table
	// Transmissions is the mean data-frame transmissions per task,
	// retransmissions included.
	Transmissions *stats.Table
	// Energy is the mean energy per task in joules, ACK cost included.
	Energy *stats.Table
}

// RunLoss sweeps per-link loss rates and measures failed tasks,
// transmissions and energy for every protocol with and without ARQ.
// (network × rate) cells run on the campaign runner's pool over shared
// deployments; reduction is in network index order, so output is
// deterministic for a given config regardless of worker count.
func RunLoss(lc LossConfig, protos []string) (*LossResults, error) {
	if err := lc.Base.Validate(protos); err != nil {
		return nil, err
	}

	// Series order is plain then +arq per protocol.
	nSeries := 2 * len(protos)
	bs := newBenches(lc.Base)
	s := lc.Base.seeds()
	grid, err := runCells(newCampaign(lc.Base), lc.Base.Networks, len(lc.LossRates),
		func(netIdx, ri int) ([]Tally, error) {
			b, err := bs.bench(netIdx)
			if err != nil {
				return nil, err
			}
			tasks, err := workload.GenerateBatch(s.tasks(netIdx, lc.K), lc.Base.Nodes, lc.K, lc.Base.TasksPerNet)
			if err != nil {
				return nil, err
			}
			plan := sim.FaultPlan{
				LossRate: lc.LossRates[ri],
				Seed:     s.lossFault(netIdx, ri),
			}
			cells := make([]Tally, nSeries)
			for arm := 0; arm < 2; arm++ {
				arq := sim.ARQConfig{}
				if arm == 1 {
					arq = lc.ARQ
					arq.Enabled = true
				}
				if err := b.en.SetARQ(arq); err != nil {
					return nil, err
				}
				for pi, proto := range protos {
					// Re-install the plan so both arms and all protocols
					// face the identical fault stream.
					if err := b.en.SetFaults(plan); err != nil {
						return nil, err
					}
					c := &cells[2*pi+arm]
					for _, task := range tasks {
						m := b.en.RunTask(makeProtocol(b.nw, proto, fixedLambda), task.Source, task.Dests)
						c.add(&m)
					}
				}
			}
			return cells, nil
		})
	if err != nil {
		return nil, err
	}

	xs := append([]float64(nil), lc.LossRates...)
	mkTable := func(title, ylabel string) *stats.Table {
		return &stats.Table{Title: title, XLabel: "loss rate", YLabel: ylabel, Xs: xs,
			Series: make([]stats.Series, 0, nSeries)}
	}
	res := &LossResults{
		Failures:      mkTable("Figure 15 under loss: failed tasks vs per-link loss rate", "failed tasks"),
		Transmissions: mkTable("Loss sweep: mean transmissions per task", "mean transmissions/task"),
		Energy:        mkTable("Loss sweep: mean energy per task", "mean energy/task (J)"),
	}
	sum := mergeNetworks(grid)
	for pi, proto := range protos {
		for arm, suffix := range []string{"", "+arq"} {
			si := 2*pi + arm
			fail := make([]float64, len(lc.LossRates))
			tx := make([]float64, len(lc.LossRates))
			energy := make([]float64, len(lc.LossRates))
			for ri := range lc.LossRates {
				c := sum[ri][si]
				fail[ri] = float64(c.FailedTasks)
				tx[ri] = c.MeanTransmissions()
				energy[ri] = c.MeanEnergyJ()
			}
			label := proto + suffix
			res.Failures.Series = append(res.Failures.Series, stats.Series{Label: label, Y: fail})
			res.Transmissions.Series = append(res.Transmissions.Series, stats.Series{Label: label, Y: tx})
			res.Energy.Series = append(res.Energy.Series, stats.Series{Label: label, Y: energy})
		}
	}
	return res, nil
}
