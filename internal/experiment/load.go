package experiment

import (
	"fmt"

	"gmp/internal/sim"
	"gmp/internal/stats"
	"gmp/internal/workload"
)

// LoadConfig parameterizes the offered-load extension experiment (E-X5):
// many multicast sessions start within a fixed window on the shared medium;
// half-duplex senders serialize their frames, so latency grows with load.
//
// ns-2 measured this implicitly through 802.11 contention; the library's
// engine models the first-order component — sender-side queueing — which is
// all the deterministic part of the comparison needs.
type LoadConfig struct {
	// Base supplies geometry, density, seeds and hop budget.
	Base Config
	// SessionCounts is the sweep of concurrent sessions per window. Each
	// must divide TotalSessions so every sweep point replays the same task
	// population and differs only in overlap.
	SessionCounts []int
	// TotalSessions is the task population per network.
	TotalSessions int
	// WindowSec is the arrival window: session starts are spread uniformly
	// over [0, WindowSec).
	WindowSec float64
	// K is the destination count per session.
	K int
}

// DefaultLoadConfig sweeps 1–64 concurrent sessions over a 10 ms window at
// Table 1 density — from idle to a heavily loaded medium (each session's
// own frames take ~1 ms each).
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		Base:          Default(),
		SessionCounts: []int{1, 4, 16, 64},
		TotalSessions: 64,
		WindowSec:     0.01,
		K:             12,
	}
}

// QuickLoadConfig is a scaled-down variant for tests.
func QuickLoadConfig() LoadConfig {
	lc := DefaultLoadConfig()
	lc.Base = Quick()
	lc.SessionCounts = []int{1, 32}
	lc.TotalSessions = 32
	lc.K = 6
	return lc
}

// ErrBadSessionCount is returned when a sweep point does not divide the
// task population.
var ErrBadSessionCount = errBadSessionCount

var errBadSessionCount = fmt.Errorf("experiment: session count must divide TotalSessions")

// RunLoad measures the mean per-destination delivery latency (milliseconds)
// against the number of concurrent sessions. (network × session-count)
// cells run on the campaign runner's pool over shared deployments; each
// cell replays the network's fixed task population and start offsets, so
// sweep points differ only in overlap.
func RunLoad(lc LoadConfig, protos []string) (*stats.Table, error) {
	if err := lc.Base.Validate(protos); err != nil {
		return nil, err
	}
	for _, c := range lc.SessionCounts {
		if c < 1 || lc.TotalSessions%c != 0 {
			return nil, fmt.Errorf("%w: %d into %d", errBadSessionCount, c, lc.TotalSessions)
		}
	}

	bs := newBenches(lc.Base)
	s := lc.Base.seeds()
	grid, err := runCells(newCampaign(lc.Base), lc.Base.Networks, len(lc.SessionCounts),
		func(netIdx, si int) ([][]float64, error) {
			b, err := bs.bench(netIdx)
			if err != nil {
				return nil, err
			}
			// One task population and one start-offset stream per network,
			// regenerated identically at every sweep point: only the overlap
			// changes.
			r := s.load(netIdx)
			tasks, err := workload.GenerateBatch(r, lc.Base.Nodes, lc.K, lc.TotalSessions)
			if err != nil {
				return nil, err
			}
			starts := make([]float64, lc.TotalSessions)
			for i := range starts {
				starts[i] = r.Float64() * lc.WindowSec
			}
			count := lc.SessionCounts[si]
			samples := make([][]float64, len(protos))
			for pi, proto := range protos {
				samples[pi] = make([]float64, 0, lc.TotalSessions)
				for chunk := 0; chunk < lc.TotalSessions; chunk += count {
					sessions := make([]sim.Session, count)
					for i := 0; i < count; i++ {
						task := tasks[chunk+i]
						sessions[i] = sim.Session{
							Start:   starts[chunk+i],
							Handler: makeProtocol(b.nw, proto, fixedLambda),
							Src:     task.Source,
							Dests:   task.Dests,
						}
					}
					res := b.en.RunScript(sessions)
					for _, m := range res {
						if len(m.DeliveredAt) == 0 {
							continue
						}
						samples[pi] = append(samples[pi], m.MeanLatency())
					}
				}
			}
			return samples, nil
		})
	if err != nil {
		return nil, err
	}

	xs := make([]float64, len(lc.SessionCounts))
	for i, n := range lc.SessionCounts {
		xs[i] = float64(n)
	}
	table := &stats.Table{
		Title:  "E-X5: delivery latency under concurrent load",
		XLabel: "concurrent sessions",
		YLabel: "mean latency (ms)",
		Xs:     xs,
		Series: make([]stats.Series, 0, 2*len(protos)),
	}
	vals := make([]float64, 0, lc.Base.Networks*lc.TotalSessions)
	for pi, proto := range protos {
		mean := make([]float64, len(xs))
		p95 := make([]float64, len(xs))
		for si := range xs {
			vals = vals[:0]
			for netIdx := range grid {
				vals = append(vals, grid[netIdx][si][pi]...)
			}
			if len(vals) > 0 {
				mean[si] = stats.Mean(vals) * 1000
				p95[si] = stats.Percentile(vals, 0.95) * 1000
			}
		}
		table.Series = append(table.Series,
			stats.Series{Label: proto, Y: mean},
			stats.Series{Label: proto + " p95", Y: p95})
	}
	return table, nil
}
