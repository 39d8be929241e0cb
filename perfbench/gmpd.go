package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"gmp/internal/serve"
	"gmp/internal/wire"
)

// The gmpd workloads run the decision daemon in this process on loopback
// TCP: 2 decision workers, 2 client connections, one open-loop generator.
// The daemon serves serve.DefaultDeploy() (600 nodes); --seed draws the
// requests, so every seed measures the same field.

const (
	gmpdWorkers = 2
	gmpdConns   = 2
	gmpdSetups  = 11
	gmpdProto   = "GMP"
)

// daemon is one booted gmpd with its client sessions.
type daemon struct {
	dep      *serve.Deployment
	srv      *serve.Server
	serveErr chan error
	gen      *generator
	addr     string
	sess     []*session
	wl       gmpdWorkload
}

// redial replaces every session the daemon has closed (it evicts a client
// that reads too slowly under overload) with a fresh connection.
func (d *daemon) redial() error {
	for i, s := range d.sess {
		if s != nil {
			select {
			case <-s.done:
			default:
				continue // still open
			}
			s.conn.Close()
			d.gen.lost(s) // sends that raced the eviction
		}
		ns, err := dialSession(d.addr, gmpdProto, d.gen)
		if err != nil {
			return err
		}
		ns.build, ns.answer = d.wl.build, d.wl.answer
		d.sess[i] = ns
	}
	return nil
}

// gmpdWorkload is one gmpd workload's traffic and checks.
type gmpdWorkload interface {
	// fill runs after boot as part of set-up (decide-hot records its pool).
	fill(d *daemon) error
	// build returns request id's message (see session.build).
	build(id uint64, i int) (byte, []byte)
	// answer inspects a terminal answer (see session.answer).
	answer(id uint64, m wire.Msg, decoded any)
	// check runs the workload's correctness checks after the load.
	check(d *daemon, rep *report) error
	// layers reports workload-specific per-layer metrics of a traced run;
	// plainP50 is the untraced unloaded latency.
	layers(d *daemon, rep *report, t *tracer, traced *phase, plainP50 float64) error
}

// gmpdLoad fixes one gmpd workload's offered load.
type gmpdLoad struct {
	lo, hi  float64       // the two fixed offered rates, requests/s
	limit   time.Duration // tail latency limit at lo
	timeout time.Duration // no answer within this counts as a failure
	window  int           // requests in flight per connection when saturated
}

func bootDaemon(wl gmpdWorkload) (*daemon, error) {
	dep, err := serve.NewDeployment(serve.DefaultDeploy())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{dep: dep, srv: serve.New(dep, serve.Config{Workers: gmpdWorkers}),
		serveErr: make(chan error, 1), gen: newGenerator(), wl: wl, addr: ln.Addr().String()}
	go func() { d.serveErr <- d.srv.Serve(ln) }()
	d.sess = make([]*session, gmpdConns)
	if err := d.redial(); err != nil {
		d.shutdown(newReport(false))
		return nil, err
	}
	if err := wl.fill(d); err != nil {
		d.shutdown(newReport(false))
		return nil, err
	}
	return d, nil
}

// shutdown drains the daemon, waits for the server to close every session
// and checks conservation on both ends: the daemon answered every admitted
// request exactly once, and the client saw exactly one answer per request.
func (d *daemon) shutdown(rep *report) serve.Stats {
	for _, s := range d.sess {
		if s == nil {
			continue // boot failed before dialing it
		}
		select {
		case <-s.done:
			d.gen.lost(s) // evicted before the drain
		default:
		}
	}
	dr := d.srv.Drain()
	for i, s := range d.sess {
		if s == nil {
			continue
		}
		if err := s.waitClosed(10 * time.Second); err != nil {
			rep.check(false, "session %d: %v", i, err)
		}
	}
	if err := <-d.serveErr; err != nil {
		rep.check(false, "serve: %v", err)
	}
	rep.check(dr.Stats.CheckConservation() == nil, "daemon conservation: %v", dr.Stats.CheckConservation())
	d.gen.mu.Lock()
	rep.check(len(d.gen.pending) == 0 && len(d.gen.expired) == 0 && d.gen.dupes == 0,
		"client ledger: %d pending, %d never answered, %d answered twice", len(d.gen.pending), len(d.gen.expired), d.gen.dupes)
	d.gen.mu.Unlock()
	return dr.Stats
}

// senders redials closed sessions and returns the ones to load.
func (d *daemon) senders() ([]sender, error) {
	if err := d.redial(); err != nil {
		return nil, err
	}
	snd := make([]sender, len(d.sess))
	for i, s := range d.sess {
		snd[i] = s
	}
	return snd, nil
}

// run offers one open-loop phase of n requests at rate.
func (d *daemon) run(rate float64, n int, timeout time.Duration) (*phase, error) {
	snd, err := d.senders()
	if err != nil {
		return nil, err
	}
	return d.gen.run(snd, rate, n, timeout), nil
}

// bytesOut is the request bytes the sessions have written so far.
func (d *daemon) bytesOut() int64 {
	var n int64
	for _, s := range d.sess {
		s.mu.Lock()
		n += s.bytesOut
		s.mu.Unlock()
	}
	return n
}

func (d *daemon) setTracer(t *tracer) {
	for _, s := range d.sess {
		s.setTracer(t)
	}
}

// slicedTail is the median of the tails of consecutive slices of at least
// 1000 samples each (so each slice has a real p99), or the plain tail of
// fewer samples: one stall moves one slice, not the figure.
func slicedTail(lat []float64) float64 {
	n := max(1, len(lat)/1000)
	tails := make([]float64, n)
	for i := range tails {
		tails[i] = tail(lat[i*len(lat)/n : (i+1)*len(lat)/n])
	}
	return median(tails)
}

// answered drops the +Inf entries of failed requests.
func answered(lat []float64) []float64 {
	var out []float64
	for _, l := range lat {
		if !math.IsInf(l, 1) {
			out = append(out, l)
		}
	}
	return out
}

// phaseN is the request count of a phase of dur at rate (at least 20).
func phaseN(rate float64, dur time.Duration) int {
	return max(20, int(rate*dur.Seconds()))
}

// runGmpd boots the daemon several times (set-up time is their median) and
// drives the last one. Untraced: the lo phase gives latency, then a
// saturated closed-loop phase gives the capacity and its CPU cost.
// Traced: the lo phase and a shorter saturated phase untraced, then the lo
// phase traced and the hi phase traced.
func runGmpd(opt options, rep *report, load gmpdLoad, newWorkload func() gmpdWorkload) error {
	var d *daemon
	var wl gmpdWorkload
	wall := make([]float64, gmpdSetups)
	cpu := make([]float64, gmpdSetups)
	for i := range wall {
		if d != nil {
			d.shutdown(rep)
		}
		runtime.GC()
		wl = newWorkload()
		start, c := time.Now(), cpuTime()
		var err error
		if d, err = bootDaemon(wl); err != nil {
			return err
		}
		wall[i], cpu[i] = time.Since(start).Seconds(), (cpuTime() - c).Seconds()
	}
	rep.set("setup_s", median(cpu)) // CPU time, as reportSetup explains
	rep.set("setup_wall_s", median(wall))
	secs := time.Duration(opt.seconds * float64(time.Second))

	if !opt.trace {
		lo, err := d.run(load.lo, phaseN(load.lo, secs*2/5), load.timeout)
		if err != nil {
			return err
		}
		logPhase("lo", lo)
		rep.attempted, rep.failed = int64(lo.n), int64(lo.failed())
		rep.set("lat_p50_ms", quantile(lo.lat, 0.50))
		rep.check(lo.meets(load.limit), "lo rate %.0f/s misses the %v latency limit: %v", load.lo, load.limit, lo)
		rate, cpuPerOp, err := capacity(d, rep, load, secs*3/5)
		if err != nil {
			return err
		}
		rep.set("ops_per_s", rate)
		rep.set("cpu_us_per_op", cpuPerOp)
	} else {
		plain, err := d.run(load.lo, phaseN(load.lo, secs*3/10), load.timeout)
		if err != nil {
			return err
		}
		logPhase("lo untraced", plain)
		rate, _, err := capacity(d, rep, load, secs/5)
		if err != nil {
			return err
		}
		rep.set("ops_per_s", rate)
		t := newTracer()
		d.setTracer(t)
		outBefore := d.bytesOut()
		before := d.srv.Stats()
		traced, err := d.run(load.lo, phaseN(load.lo, secs*3/10), load.timeout)
		if err != nil {
			return err
		}
		logPhase("lo traced", traced)
		mid := d.srv.Stats()
		lt := t.layers()
		plainP50 := quantile(plain.lat, 0.50)
		if err := wl.layers(d, rep, t, traced, plainP50); err != nil {
			return err
		}
		rep.set("wire.bytes_out_per_req", float64(d.bytesOut()-outBefore)/float64(traced.n))
		hi, err := d.run(load.hi, phaseN(load.hi, secs/10), load.timeout)
		if err != nil {
			return err
		}
		logPhase("hi traced", hi)
		after := d.srv.Stats()
		d.setTracer(nil)
		rep.attempted = int64(plain.n + traced.n)
		rep.failed = int64(plain.failed() + traced.failed())
		rep.set("lat_samples", float64(plain.n))
		rep.set("lat_p50_ms", plainP50)
		rep.set("lat_tail_ms", slicedTail(plain.lat))
		rep.set("trace.overhead_pct", (quantile(traced.lat, 0.50)/plainP50-1)*100)
		rep.set("lat_p99_ms_hi", quantile(answered(hi.lat), 0.99)) // failures: fail_ratio_hi
		rep.set("fail_ratio_hi", float64(hi.failed())/float64(hi.n))
		rep.set("loadgen.backlog_max", float64(hi.backlogMax.Load()))
		rep.set("loadgen.late_p99_ms", quantile(hi.late, 0.99))
		if looked := (mid.CacheHits - before.CacheHits) + (mid.CacheMisses - before.CacheMisses); looked > 0 {
			rep.set("serve.cache_hit_ratio", float64(mid.CacheHits-before.CacheHits)/float64(looked))
		}
		rep.set("serve.cache_evictions", float64(mid.CacheEvictions-before.CacheEvictions))
		if adm := after.Admitted - mid.Admitted; adm > 0 {
			rep.set("serve.shed_ratio", float64(after.Shed()-mid.Shed())/float64(adm))
		}
		rep.set("serve.evicted", float64(after.Evicted-before.Evicted))
		// Codec time per request of the traced lo phase (a streamed route
		// decodes every HOP message as well as its summary).
		if l := lt["wire.encode"]; l != nil {
			rep.set("wire.encode_us", float64(l.busy.Nanoseconds())/1e3/float64(traced.n))
		}
		if l := lt["wire.decode"]; l != nil {
			rep.set("wire.decode_us", float64(l.busy.Nanoseconds())/1e3/float64(traced.n))
		}
		rep.set("wire.bytes_in_per_req", float64(traced.bytesIn)/float64(traced.n))
		rep.set("wire.msgs_in_per_req", float64(traced.msgsIn)/float64(traced.n))
		if err := t.write(opt.spans); err != nil {
			return err
		}
	}
	if err := wl.check(d, rep); err != nil {
		return err
	}
	d.shutdown(rep)
	return nil
}

// capacity is the rate of successful answers with load.window requests in
// flight on each connection for dur — the median over tenths of the phase,
// so a passing stall does not move it — and the process CPU time (daemon
// and client) per answer. No request may fail.
func capacity(d *daemon, rep *report, load gmpdLoad, dur time.Duration) (float64, float64, error) {
	snd, err := d.senders()
	if err != nil {
		return 0, 0, err
	}
	cpu := cpuTime()
	ph := d.gen.runClosed(snd, load.window, dur, load.timeout)
	cpu = cpuTime() - cpu
	logPhase("saturated", ph)
	rep.check(ph.failed() == 0, "saturated phase: %d of %d requests failed", ph.failed(), ph.n)
	return median(ph.slices), cpuUSPerOp(cpu, int64(ph.outcomes[outOK])), nil
}

func logPhase(name string, ph *phase) {
	fmt.Fprintf(stderrLog, "perfbench:   %-12s %v\n", name, ph)
}
