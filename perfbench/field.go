package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// field-sessions: a 10⁵-node field at constant density running one script of
// overlapping GMP and GRD sessions on the sharded kernel. This is the only
// workload whose set-up is dominated by network and planar construction,
// and the only one driving the sharded kernel.

const (
	fieldNodes       = 100_000
	fieldAreaPerNode = 1000.0 // m² per node
	fieldRange       = 150.0
	fieldSessions    = 1000 // alternating GMP and GRD
	fieldK           = 10
	fieldInterval    = 0.002 // virtual seconds between session starts
	fieldShards      = 2
	fieldSetups      = 3
)

var fieldProtocols = []string{"GMP", "GRD"}

// fieldBench is the set-up state of field-sessions.
type fieldBench struct {
	f     *field
	prov  *view.Oracle
	tasks []workload.Task
}

func setupField(seed int64, st *setupTimes) (*fieldBench, error) {
	start, cpu := time.Now(), cpuTime()
	side := math.Sqrt(fieldNodes * fieldAreaPerNode)
	f, err := deployField(fieldNodes, side, fieldRange, st)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	b := &fieldBench{f: f, prov: view.NewOracle(f.nw, f.pg)}
	st.view = time.Since(t).Seconds()
	if b.tasks, err = workload.GenerateBatch(seeded(seed, streamTasks, 0), fieldNodes, fieldK, fieldSessions); err != nil {
		return nil, err
	}
	// Warm-up: the script itself, so the per-node decision scratch the
	// sessions touch is allocated before anything is timed.
	t = time.Now()
	if _, err := b.runScript(b.tasks, nil); err != nil {
		return nil, err
	}
	st.warmup = time.Since(t).Seconds()
	st.total = time.Since(start).Seconds()
	st.cpu = (cpuTime() - cpu).Seconds()
	return b, nil
}

// scriptRun is one script's outcome.
type scriptRun struct {
	fp      uint64
	tx      int64
	elapsed time.Duration
	cpu     time.Duration // process CPU time during RunScript
}

// runScript runs tasks as one concurrent script on a fresh sharded engine,
// audits every session and fingerprints the outcome. With a tracer the
// RunScript call is a "sim.run" span and every decision a "routing.<P>"
// span below it, recorded from both kernel lanes.
func (b *fieldBench) runScript(tasks []workload.Task, t *tracer) (scriptRun, error) {
	en := sim.NewEngine(b.f.nw, sim.DefaultRadioParams(), 0)
	en.SetViews(b.prov)
	if err := en.SetSharding(sim.ShardConfig{Shards: fieldShards, Window: sim.Lookahead(en.Radio(), en.ARQ())}); err != nil {
		return scriptRun{}, err
	}
	var id int32 = -1
	if t != nil {
		id = t.open("sim.run", -1, 0)
	}
	script := make([]sim.Session, len(tasks))
	for i, task := range tasks {
		name := fieldProtocols[i%len(fieldProtocols)]
		p, err := routing.Make(name, routing.Ctx{})
		if err != nil {
			return scriptRun{}, err
		}
		if t != nil {
			p = traceHandler(p, name, t, id, int64(i), nil)
		}
		script[i] = sim.Session{Start: float64(i) * fieldInterval, Handler: p, Src: task.Source, Dests: task.Dests}
	}
	start, cpu := time.Now(), cpuTime()
	ms := en.RunScript(script)
	run := scriptRun{elapsed: time.Since(start), cpu: cpuTime() - cpu}
	if t != nil {
		t.close(id)
	}
	h := fnv.New64a()
	for i := range ms {
		m := &ms[i].TaskMetrics
		name := fieldProtocols[i%len(fieldProtocols)]
		if err := sim.AuditTask(m, auditConfig(name, 0)); err != nil {
			return run, fmt.Errorf("session %d (%s): audit: %w", i, name, err)
		}
		run.tx += int64(m.Transmissions)
		fingerprint(h, i, m)
	}
	run.fp = h.Sum64()
	return run, nil
}

func runFieldSessions(opt options, rep *report) error {
	var b *fieldBench
	passes := make([]setupTimes, fieldSetups)
	for i := range passes {
		b = nil
		runtime.GC() // release the previous pass's field before timing the next
		var err error
		if b, err = setupField(opt.seed, &passes[i]); err != nil {
			return err
		}
	}
	reportSetup(rep, passes)

	var first *scriptRun
	same := func(r scriptRun) {
		if first == nil {
			first = &r
			return
		}
		rep.check(r.fp == first.fp && r.tx == first.tx,
			"script fingerprint changed between repeats (%x/%d tx vs %x/%d tx)", r.fp, r.tx, first.fp, first.tx)
	}
	if !opt.trace {
		var rates, lat []float64
		var cpu time.Duration
		deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
		for len(rates) < 2 || time.Now().Before(deadline) {
			r, err := b.runScript(b.tasks, nil)
			cpu += r.cpu
			if err != nil {
				rep.check(false, "%v", err)
				rep.failed++
				break
			}
			same(r)
			rep.attempted += r.tx
			rates = append(rates, float64(r.tx)/r.elapsed.Seconds())
			lat = append(lat, float64(r.elapsed.Nanoseconds())/1e6)
		}
		rep.set("ops_per_s", median(rates))
		rep.set("cpu_us_per_op", cpuUSPerOp(cpu, rep.attempted))
		rep.set("lat_p50_ms", quantile(lat, 0.50))
		return nil
	}
	plain, err := b.runScript(b.tasks, nil)
	if err != nil {
		return err
	}
	same(plain)
	t := newTracer()
	traced, err := b.runScript(b.tasks, t)
	if err != nil {
		return err
	}
	same(traced)
	rep.attempted = plain.tx + traced.tx
	rep.set("ops_per_s", float64(plain.tx)/plain.elapsed.Seconds())
	rep.set("lat_samples", 1)
	rep.set("lat_p50_ms", float64(plain.elapsed.Nanoseconds())/1e6)
	rep.set("lat_tail_ms", float64(plain.elapsed.Nanoseconds())/1e6)
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
