package experiment

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
)

// This file is the campaign runner: the single place where the experiment
// layer's parallelism, scheduling and reduction order live. Every Run*
// driver decomposes its sweep into (network × sweep-point) cells, hands
// them to runCells, and reduces the returned grid in index order — so a
// campaign's output is byte-identical for any worker count.

// ProgressFunc observes campaign progress. The runner calls it after every
// completed cell with (completed, total); calls are serialized, so the
// callback needs no locking of its own.
type ProgressFunc func(done, total int)

// campaign carries the execution knobs shared by every driver.
type campaign struct {
	workers  int
	progress ProgressFunc
	ctx      context.Context // nil = never cancelled
}

// newCampaign resolves a config's execution knobs.
func newCampaign(cfg Config) campaign {
	return campaign{workers: cfg.workerCount(), progress: cfg.Progress, ctx: cfg.Ctx}
}

// cancelled reports whether the campaign's context is done.
func (c campaign) cancelled() bool {
	if c.ctx == nil {
		return false
	}
	select {
	case <-c.ctx.Done():
		return true
	default:
		return false
	}
}

// runCells fans out over networks × points cells on a bounded worker pool
// and collects the results into a preallocated [network][point] grid. At
// most c.workers goroutines exist at any time (not one per cell); cells are
// handed out in index order. The grid layout is position-determined, so
// callers that reduce it in index order produce identical output regardless
// of worker count or completion order. The first error aborts the remaining
// cells. A cancelled campaign context stops cell hand-out: in-flight cells
// finish, every worker returns, and runCells reports the context's error —
// no goroutine outlives the call either way.
func runCells[T any](c campaign, networks, points int, cell func(netIdx, ptIdx int) (T, error)) ([][]T, error) {
	total := networks * points
	flat := make([]T, total)
	grid := make([][]T, networks)
	for n := range grid {
		grid[n] = flat[n*points : (n+1)*points : (n+1)*points]
	}
	if total == 0 {
		return grid, nil
	}
	workers := c.workers
	if workers > total {
		workers = total
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex // serializes progress reporting
		done   int
	)
	errs := make([]error, total)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if c.cancelled() {
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= total || failed.Load() {
					return
				}
				res, err := cell(idx/points, idx%points)
				if err != nil {
					errs[idx] = err
					failed.Store(true)
					return
				}
				flat[idx] = res
				if c.progress != nil {
					mu.Lock()
					done++
					c.progress(done, total)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if c.cancelled() {
		return nil, c.ctx.Err()
	}
	return grid, nil
}

// runNetworks is runCells for drivers whose unit of work is a whole network
// (one sweep point per cell): results come back indexed by network.
func runNetworks[T any](c campaign, networks int, fn func(netIdx int) (T, error)) ([]T, error) {
	grid, err := runCells(c, networks, 1, func(netIdx, _ int) (T, error) {
		return fn(netIdx)
	})
	if err != nil {
		return nil, err
	}
	out := make([]T, networks)
	for i := range grid {
		out[i] = grid[i][0]
	}
	return out, nil
}

// replayAudit is the oracle scaffolding shared by the chaos, churn and
// delivery campaigns: it runs one arm twice from scratch, reports
// "<label>: replay diverged" when the runs differ, and audits every task of
// the first run, reporting "<label> <unit><i>: <error>" per failing task. The
// caller keeps its own tallies over the returned metrics.
func replayAudit(label, unit string, audit sim.AuditConfig, run func() ([]sim.TaskMetrics, error)) ([]sim.TaskMetrics, []string, error) {
	metrics, err := run()
	if err != nil {
		return nil, nil, err
	}
	replay, err := run()
	if err != nil {
		return nil, nil, err
	}
	var violations []string
	if !reflect.DeepEqual(metrics, replay) {
		violations = append(violations, label+": replay diverged")
	}
	for ti := range metrics {
		if err := sim.AuditTask(&metrics[ti], audit); err != nil {
			violations = append(violations, fmt.Sprintf("%s %s%d: %v", label, unit, ti, err))
		}
	}
	return metrics, violations, nil
}

// oracleVerdict renders a report's closing oracle line: label, then pass
// when there are no violations, else "FAIL (n violations)" with every
// violation listed beneath it.
func oracleVerdict(label, pass string, violations []string) string {
	if len(violations) == 0 {
		return label + pass + "\n"
	}
	s := fmt.Sprintf("%sFAIL (%d violations)\n", label, len(violations))
	for _, v := range violations {
		s += "    " + v + "\n"
	}
	return s
}

// deployment is one network's immutable build products — placement,
// adjacency and planar graph. Cells running concurrently on the same
// network share it read-only.
type deployment struct {
	nw *network.Network
	pg *planar.Graph
}

// buildDeployment deploys network netIdx of the campaign.
func buildDeployment(cfg Config, netIdx int) (*deployment, error) {
	nodes := network.DeployUniform(cfg.Nodes, cfg.Width, cfg.Height, cfg.seeds().deployment(netIdx))
	nw, err := network.New(nodes, cfg.Width, cfg.Height, cfg.RadioRange)
	if err != nil {
		return nil, fmt.Errorf("network %d: %w", netIdx, err)
	}
	return &deployment{nw: nw, pg: planar.Planarize(nw, cfg.Planarizer)}, nil
}

// benches lazily builds one deployment per network, so a campaign pays the
// placement + planarization cost once per network no matter how many cells
// run on it. Engines carry per-run state (virtual clock, fault stream) and
// are therefore private to each cell: bench hands out a fresh one per call.
type benches struct {
	cfg  Config
	once []sync.Once
	deps []*deployment
	errs []error
}

// newBenches prepares the lazy per-network deployment cache for cfg.
func newBenches(cfg Config) *benches {
	return &benches{
		cfg:  cfg,
		once: make([]sync.Once, cfg.Networks),
		deps: make([]*deployment, cfg.Networks),
		errs: make([]error, cfg.Networks),
	}
}

// deployment returns network netIdx's shared build products, building them
// on first use.
func (bs *benches) deployment(netIdx int) (*deployment, error) {
	bs.once[netIdx].Do(func() {
		bs.deps[netIdx], bs.errs[netIdx] = buildDeployment(bs.cfg, netIdx)
	})
	return bs.deps[netIdx], bs.errs[netIdx]
}

// bench returns a private engine over network netIdx's shared deployment,
// with the campaign's fault plan and ARQ installed.
func (bs *benches) bench(netIdx int) (*bench, error) {
	d, err := bs.deployment(netIdx)
	if err != nil {
		return nil, err
	}
	en := bs.cfg.engine(d.nw, d.pg)
	if err := applyFaults(bs.cfg, netIdx, en); err != nil {
		return nil, fmt.Errorf("network %d: %w", netIdx, err)
	}
	return &bench{nw: d.nw, en: en}, nil
}
