package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// Seed streams: every input of a run derives from (--seed, stream, index),
// so the same seed gives the same inputs and streams never alias. The
// deployments do not depend on --seed: every seed measures the same fields
// (as the gmpd workloads measure serve.DefaultDeploy()), so seeds vary the
// traffic, and a field's geometry does not move the figures between seeds.
const (
	streamDeploy int64 = iota + 1
	streamTasks
	streamRoutes
	streamPool
	streamFresh
)

func seeded(seed, stream, index int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*7_919 + index))
}

// field is one deployed network with its perimeter substrate.
type field struct {
	nw *network.Network
	pg *planar.Graph
}

// setupTimes is one set-up pass: wall seconds per layer and in total, and
// the process CPU seconds it took.
type setupTimes struct{ network, planar, view, warmup, total, cpu float64 }

// reportSetup reports the median set-up figures over several passes.
// setup_s is CPU time: on a shared host the wall time of a short set-up
// follows the host's load (README.md, "Why CPU time").
func reportSetup(rep *report, passes []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	rep.set("setup_s", pick(func(p setupTimes) float64 { return p.cpu }))
	rep.set("setup_wall_s", pick(func(p setupTimes) float64 { return p.total }))
	rep.set("network.build_s", pick(func(p setupTimes) float64 { return p.network }))
	rep.set("planar.build_s", pick(func(p setupTimes) float64 { return p.planar }))
	rep.set("view.build_s", pick(func(p setupTimes) float64 { return p.view }))
	rep.set("sim.warmup_s", pick(func(p setupTimes) float64 { return p.warmup }))
}

// deploySeed places every field the sim workloads measure.
const deploySeed = 1

// deployField places n nodes uniformly on a side×side square and
// planarizes the unit-disk graph (Gabriel, the campaigns' default).
func deployField(n int, side, radio float64, st *setupTimes) (*field, error) {
	t0 := time.Now()
	nw, err := network.New(network.DeployUniform(n, side, side, seeded(deploySeed, streamDeploy, 0)), side, side, radio)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	pg := planar.Planarize(nw, planar.Gabriel)
	st.network = t1.Sub(t0).Seconds()
	st.planar = time.Since(t1).Seconds()
	return &field{nw: nw, pg: pg}, nil
}

// makeProto builds a fresh protocol instance.
func makeProto(nw *network.Network, name string, lambda float64) (routing.Protocol, error) {
	return routing.Make(name, routing.Ctx{Network: nw, Lambda: lambda, LambdaSet: true})
}

// auditConfig is the invariant oracle's setting for proto.
func auditConfig(proto string, maxHops int) sim.AuditConfig {
	sp, _ := routing.Lookup(proto)
	return sim.AuditConfig{MaxHops: maxHops, AllowDuplicates: sp.Flags&routing.FlagConcurrent != 0}
}

// fingerprint folds a run's deterministic outcome — transmissions,
// delivered destinations with their hop counts, drops and energy — into h.
func fingerprint(h interface{ Write([]byte) (int, error) }, tag int, m *sim.TaskMetrics) {
	ids := make([]int, 0, len(m.Delivered))
	for id := range m.Delivered {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	fmt.Fprintf(h, "%d:%d:%d:%v:%v:", tag, m.Transmissions, math.Float64bits(m.EnergyJ), m.DestDropsByReason, m.DropsByReason)
	for _, id := range ids {
		fmt.Fprintf(h, "%d=%d,", id, m.Delivered[id])
	}
}

// ---------------------------------------------------------------------------
// paper-campaign: the paper's §5 field and task model on the single-queue
// engine, every protocol of the paper set, PBM at each campaign λ.

const (
	campaignNodes    = 1000
	campaignSide     = 1000.0
	campaignRange    = 150.0
	campaignMaxHops  = 100
	campaignCellsPer = 8 // cells per k in one pass of the work list
	campaignTasks    = 5 // tasks per cell
	campaignWorkers  = 2
	campaignSetups   = 9
)

var (
	campaignKs      = []int{3, 5, 8, 12, 16, 20, 25}
	campaignLambdas = []float64{0, 0.3, 0.6}
)

// protoRun is one protocol-task of the campaign: a protocol at one λ.
type protoRun struct {
	name   string
	lambda float64
}

// campaignRuns lists the protocol-tasks every campaign task runs.
func campaignRuns() ([]protoRun, error) {
	if !slices.Equal(routing.PaperSet(), paperProtocols) {
		return nil, fmt.Errorf("routing.PaperSet() is %v, the metric list names %v", routing.PaperSet(), paperProtocols)
	}
	var runs []protoRun
	for _, p := range paperProtocols {
		sp, _ := routing.Lookup(p)
		if sp.Flags&routing.FlagLambda != 0 {
			for _, l := range campaignLambdas {
				runs = append(runs, protoRun{p, l})
			}
			continue
		}
		runs = append(runs, protoRun{p, 0})
	}
	return runs, nil
}

// campaign is the set-up state of paper-campaign.
type campaign struct {
	f       *field
	engines []*sim.Engine // one per worker
	cells   [][]workload.Task
	runs    []protoRun
}

func setupCampaign(seed int64, st *setupTimes) (*campaign, error) {
	start, cpu := time.Now(), cpuTime()
	runs, err := campaignRuns()
	if err != nil {
		return nil, err
	}
	f, err := deployField(campaignNodes, campaignSide, campaignRange, st)
	if err != nil {
		return nil, err
	}
	c := &campaign{f: f, runs: runs}
	t := time.Now()
	for w := 0; w < campaignWorkers; w++ {
		en := sim.NewEngine(f.nw, sim.DefaultRadioParams(), campaignMaxHops)
		en.SetViews(view.NewOracle(f.nw, f.pg))
		c.engines = append(c.engines, en)
	}
	st.view = time.Since(t).Seconds()
	// Cells cycle through the ks, so every stretch of the work list has the
	// campaign's mix of group sizes and a time slice measures a fair share.
	for ci := 0; ci < campaignCellsPer; ci++ {
		for ki, k := range campaignKs {
			tasks, err := workload.GenerateBatch(seeded(seed, streamTasks, int64(ci*len(campaignKs)+ki)), campaignNodes, k, campaignTasks)
			if err != nil {
				return nil, err
			}
			c.cells = append(c.cells, tasks)
		}
	}
	// Warm-up: a task of the smallest and of the largest k through every
	// protocol on every engine.
	t = time.Now()
	for _, en := range c.engines {
		for _, ci := range []int{0, len(campaignKs) - 1} {
			if _, _, err := c.runCell(en, ci, c.cells[ci][:1], nil, -1, nil); err != nil {
				return nil, err
			}
		}
	}
	st.warmup = time.Since(t).Seconds()
	st.total = time.Since(start).Seconds()
	st.cpu = (cpuTime() - cpu).Seconds()
	return c, nil
}

// runCell runs tasks through every protocol-task on en, audits each run and
// returns the cell's fingerprint. With a tracer, each RunTask is a
// "sim.run" span and each decision a "routing.<P>" span below it. lat, when
// non-nil, receives each task's host latency in ms: the time to run it
// through every protocol-task (the audits and fingerprints included).
func (c *campaign) runCell(en *sim.Engine, cell int, tasks []workload.Task, t *tracer, req int64, lat *[]float64) (uint64, int64, error) {
	h := fnv.New64a()
	var tx int64
	for ti, task := range tasks {
		t0 := time.Now()
		for ri, r := range c.runs {
			p, err := makeProto(c.f.nw, r.name, r.lambda)
			if err != nil {
				return 0, 0, err
			}
			var id int32 = -1
			if t != nil {
				id = t.open("sim.run", -1, req)
				p = traceHandler(p, r.name, t, id, req, nil)
			}
			m := en.RunTask(p, task.Source, task.Dests)
			if t != nil {
				t.close(id)
			}
			if err := sim.AuditTask(&m, auditConfig(r.name, campaignMaxHops)); err != nil {
				return 0, 0, fmt.Errorf("cell %d task %d %s λ=%g: audit: %w", cell, ti, r.name, r.lambda, err)
			}
			tx += int64(m.Transmissions)
			fingerprint(h, ti*len(c.runs)+ri, &m)
		}
		if lat != nil {
			*lat = append(*lat, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	return h.Sum64(), tx, nil
}

// pass is the outcome of running cells on the worker pool.
type pass struct {
	ops     int64
	tx      int64
	lat     []float64
	elapsed time.Duration
	slices  []float64 // ops/s per time slice (timed passes only)
	err     error
}

// runPass runs the campaign's work list on the workers: exactly once when
// dur is 0, else cycling through it until dur has elapsed. Every cell's
// fingerprint must equal the first one recorded for it (fps).
func (c *campaign) runPass(dur time.Duration, t *tracer, fps map[int]uint64) pass {
	var (
		next   atomic.Int64
		done   atomic.Int64
		tx     atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
		res    pass
		start  = time.Now()
		stopAt = start.Add(dur)
	)
	total := int64(len(c.cells))
	for _, en := range c.engines {
		wg.Add(1)
		go func(en *sim.Engine) {
			defer wg.Done()
			var lat []float64
			for {
				i := next.Add(1) - 1
				if (dur == 0 && i >= total) || (dur > 0 && time.Now().After(stopAt)) {
					break
				}
				cell := int(i % total)
				fp, n, err := c.runCell(en, cell, c.cells[cell], t, i, &lat)
				done.Add(int64(len(c.cells[cell]) * len(c.runs)))
				tx.Add(n)
				mu.Lock()
				if err == nil {
					if prev, ok := fps[cell]; ok && prev != fp {
						err = fmt.Errorf("cell %d fingerprint changed between repeats (%x vs %x)", cell, prev, fp)
					}
					fps[cell] = fp
				}
				if err != nil && res.err == nil {
					res.err = err
				}
				mu.Unlock()
				if err != nil {
					break
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			mu.Unlock()
		}(en)
	}
	if dur > 0 {
		res.slices = sampleRates(&done, start, dur, 5)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.ops = done.Load()
	res.tx = tx.Load()
	return res
}

// sampleRates splits dur into n slices and returns the rate at which the
// counter advanced in each.
func sampleRates(counter *atomic.Int64, start time.Time, dur time.Duration, n int) []float64 {
	rates := make([]float64, 0, n)
	prev, prevT := counter.Load(), start
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(n))))
		cur, now := counter.Load(), time.Now()
		rates = append(rates, float64(cur-prev)/now.Sub(prevT).Seconds())
		prev, prevT = cur, now
	}
	return rates
}

func runPaperCampaign(opt options, rep *report) error {
	var c *campaign
	passes := make([]setupTimes, campaignSetups)
	for i := range passes {
		var err error
		if c, err = setupCampaign(opt.seed, &passes[i]); err != nil {
			return err
		}
	}
	reportSetup(rep, passes)
	fps := map[int]uint64{}
	if !opt.trace {
		cpu := cpuTime()
		p := c.runPass(time.Duration(opt.seconds*float64(time.Second)), nil, fps)
		rep.set("cpu_us_per_op", cpuUSPerOp(cpuTime()-cpu, p.ops))
		rep.attempted = p.ops
		if p.err != nil {
			rep.check(false, "%v", p.err)
			rep.failed = 1
		}
		rep.set("ops_per_s", median(p.slices))
		rep.set("lat_p50_ms", quantile(p.lat, 0.50))
		return nil
	}
	plain := c.runPass(0, nil, fps)
	t := newTracer()
	traced := c.runPass(0, t, fps)
	for _, p := range []pass{plain, traced} {
		rep.check(p.err == nil, "%v", p.err)
	}
	rep.attempted = plain.ops + traced.ops
	rep.set("ops_per_s", float64(plain.ops)/plain.elapsed.Seconds())
	rep.set("lat_samples", float64(len(plain.lat)))
	rep.set("lat_p50_ms", quantile(plain.lat, 0.50))
	rep.set("lat_tail_ms", tail(plain.lat))
	rep.set("trace.overhead_pct", overheadPct(plain.elapsed, traced.elapsed))
	rep.set("sim.transmissions", float64(traced.tx))
	lt := t.layers()
	setRoutingLayers(rep, t, lt)
	if l := lt["sim.run"]; l != nil {
		rep.set("sim.run_s", l.busy.Seconds())
		rep.set("sim.self_s", l.self.Seconds())
	}
	return t.write(opt.spans)
}

// overheadPct is how much longer the traced run of some work took than the
// untraced run of the same work, in percent.
func overheadPct(plain, traced time.Duration) float64 {
	return (traced.Seconds()/plain.Seconds() - 1) * 100
}
