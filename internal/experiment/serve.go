package experiment

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"gmp/internal/serve"
)

// This file is the overload/chaos-transport service campaign (E-X13): the
// hardened decision daemon (internal/serve) is booted on a loopback
// listener, driven past its admission envelope and through four transport
// adversity families (slow clients, mid-frame disconnects, corrupt frames,
// connection-reset storms), and audited against the daemon's one core
// invariant — conservation of answers: every admitted request is answered
// exactly once (FORWARDS, ERROR, or SHED), never silently dropped. After
// each arm's adversity the chaos listener is disabled and a clean-traffic
// probe must come back 100% FORWARDS: the daemon took the abuse without
// wedging a worker, leaking a session slot, or corrupting shared state.
//
// Unlike the simulator campaigns, E-X13 measures a real concurrent service
// under wall-clock timing, so throughput, retry and shed counts vary run to
// run; the oracle checks are exact (conservation is counted, not timed) and
// the rendered numbers are measurements, not reproducible tables.

// ServeArmConfig is one (load × adversity) arm of the campaign.
type ServeArmConfig struct {
	// Name identifies the arm in the report.
	Name string
	// Chaos selects the transport adversity family (ChaosNone = clean arm);
	// ChaosFraction is the fraction of connections afflicted.
	Chaos         serve.ChaosMode
	ChaosFraction float64
	// Conns/Requests/K/Burst shape the offered load (serve.LoadConfig).
	Conns    int
	Requests int
	K        int
	Burst    int
	// Server is the daemon's hardening envelope for this arm. Overload arms
	// shrink Workers/QueueDepth/RequestTimeout to force shedding.
	Server serve.Config
	// ExpectShed marks arms built to overload the daemon: seeing zero shed
	// answers means the arm did not test what it claims to.
	ExpectShed bool
}

// ServeConfig parameterizes the service campaign.
type ServeConfig struct {
	// Deploy is the field the daemon serves decisions for.
	Deploy serve.DeployConfig
	// Protocol is the decision protocol every session requests.
	Protocol string
	// Arms are run sequentially: each boots a fresh daemon on a loopback
	// listener. (Sequential on purpose — a service arm deliberately
	// saturates the machine, and concurrent arms would measure each other.)
	Arms []ServeArmConfig
	// ProbeConns/ProbeRequests shape the post-chaos clean-traffic probe.
	ProbeConns    int
	ProbeRequests int
	// Seed derives every arm's workload and affliction streams.
	Seed int64
	// Progress, when non-nil, observes per-arm completion.
	Progress ProgressFunc
	// Ctx, when non-nil, cancels the campaign between arms (see Config.Ctx).
	Ctx context.Context
}

// DefaultServeConfig is the full campaign: the paper's 600-node field, a
// clean baseline, a hard-overload arm, and one arm per adversity family.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Deploy:   serve.DefaultDeploy(),
		Protocol: ProtoGMP,
		Arms: []ServeArmConfig{
			{Name: "baseline", Chaos: serve.ChaosNone,
				Conns: 8, Requests: 60, K: 10,
				Server: serve.Config{}},
			// The overload arm makes admission overflow a certainty, not a
			// scheduling accident: each connection pipelines bursts of 8
			// requests, so Conns×8 requests hit a 2-deep queue with one
			// worker at once — the daemon must shed, and every shed must
			// still be a typed answer.
			{Name: "overload", Chaos: serve.ChaosNone, ExpectShed: true,
				Conns: 12, Requests: 40, K: 25, Burst: 8,
				Server: serve.Config{Workers: 1, QueueDepth: 2,
					RequestTimeout: 50 * time.Millisecond}},
			{Name: "trickle", Chaos: serve.ChaosTrickle, ChaosFraction: 0.5,
				Conns: 8, Requests: 30, K: 10,
				Server: serve.Config{WriteTimeout: 40 * time.Millisecond, SendBuffer: 4}},
			{Name: "cut", Chaos: serve.ChaosCut, ChaosFraction: 0.6,
				Conns: 8, Requests: 30, K: 10,
				Server: serve.Config{}},
			{Name: "corrupt", Chaos: serve.ChaosCorrupt, ChaosFraction: 0.6,
				Conns: 8, Requests: 30, K: 10,
				Server: serve.Config{}},
			{Name: "reset", Chaos: serve.ChaosReset, ChaosFraction: 0.5,
				Conns: 8, Requests: 30, K: 10,
				Server: serve.Config{}},
		},
		ProbeConns:    4,
		ProbeRequests: 25,
		Seed:          1,
	}
}

// QuickServeConfig is the CI smoke variant: a smaller field and lighter
// arms, same arm structure and the same oracle.
func QuickServeConfig() ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Deploy = serve.DeployConfig{Nodes: 150, Width: 500, Height: 500,
		RadioRange: 100, Planarizer: cfg.Deploy.Planarizer, Seed: 1}
	for i := range cfg.Arms {
		cfg.Arms[i].Conns = min(cfg.Arms[i].Conns, 4)
		cfg.Arms[i].Requests = 10
	}
	cfg.ProbeConns = 2
	cfg.ProbeRequests = 10
	return cfg
}

// Validate checks the campaign parameters.
func (cfg ServeConfig) Validate() error {
	if len(cfg.Arms) == 0 {
		return fmt.Errorf("experiment: serve needs at least one arm")
	}
	if err := serve.CheckServable(cfg.Protocol); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProtocol, err)
	}
	for _, a := range cfg.Arms {
		if a.Name == "" {
			return fmt.Errorf("experiment: serve arm without a name")
		}
		if a.Conns < 1 || a.Requests < 1 || a.K < 1 {
			return fmt.Errorf("experiment: serve arm %q needs conns, requests and k >= 1", a.Name)
		}
		if a.Chaos != serve.ChaosNone && a.ChaosFraction <= 0 {
			return fmt.Errorf("experiment: serve arm %q afflicts nothing (fraction %v)",
				a.Name, a.ChaosFraction)
		}
	}
	if cfg.ProbeConns < 1 || cfg.ProbeRequests < 1 {
		return fmt.Errorf("experiment: serve needs a non-empty clean probe")
	}
	return nil
}

// ServeArm is one arm's outcome: the client-side ledger, the daemon's
// conservation counters, the probe result, and any oracle violations.
type ServeArm struct {
	Name  string
	Chaos serve.ChaosMode
	// Load is the adversity-phase client ledger.
	Load *serve.LoadReport
	// Stats is the daemon's counter snapshot after drain.
	Stats serve.Stats
	// Drain is the daemon's shutdown report.
	Drain serve.DrainReport
	// Afflicted is how many connections the chaos listener hit.
	Afflicted int64
	// ProbeForwards out of ProbeOffered clean-probe requests answered
	// FORWARDS after adversity ended.
	ProbeForwards int64
	ProbeOffered  int64
	// Violations lists oracle failures.
	Violations []string
}

// ServeReport is the campaign outcome, arms in config order.
type ServeReport struct {
	Arms []ServeArm
}

// Violations collects every arm's violations, in arm order.
func (r *ServeReport) Violations() []string {
	var out []string
	for _, a := range r.Arms {
		out = append(out, a.Violations...)
	}
	return out
}

// Render formats the report for terminal output.
func (r *ServeReport) Render() string {
	var b strings.Builder
	b.WriteString("E-X13: gmpd under overload and transport chaos\n")
	fmt.Fprintf(&b, "  %-9s %-8s %9s %8s %6s %6s %7s %7s %7s %8s %6s  %s\n",
		"arm", "chaos", "dec/s", "fwd", "err", "shed", "retry", "xport", "evict", "afflict", "probe", "lat ms p50/p95/p99")
	for _, a := range r.Arms {
		st := a.Stats
		lat := "-" // burst arms pipeline and record no per-request latency
		if len(a.Load.LatencyMs) > 0 {
			lat = fmt.Sprintf("%.1f/%.1f/%.1f", a.Load.Percentile(0.50),
				a.Load.Percentile(0.95), a.Load.Percentile(0.99))
		}
		fmt.Fprintf(&b, "  %-9s %-8s %9.0f %8d %6d %6d %7d %7d %7d %8d %3d/%-3d  %s\n",
			a.Name, a.Chaos, a.Load.DecisionsPerSec(),
			a.Load.Forwards, a.Load.Errors, st.Shed(), a.Load.Retries,
			a.Load.TransportErrors+a.Load.DialErrors, st.Evicted, a.Afflicted,
			a.ProbeForwards, a.ProbeOffered, lat)
	}
	b.WriteString(oracleVerdict("  oracle    ", "PASS (0 violations: every admitted request answered exactly once;\n"+
		"            post-chaos probes 100% FORWARDS)", r.Violations()))
	return b.String()
}

// RunServe executes the campaign. The returned error covers plumbing only
// (deployment or listener failures); oracle violations land in the report.
func RunServe(cfg ServeConfig) (*ServeReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dep, err := serve.NewDeployment(cfg.Deploy)
	if err != nil {
		return nil, err
	}
	s := seeds{base: cfg.Seed}
	rep := &ServeReport{Arms: make([]ServeArm, 0, len(cfg.Arms))}
	for ai, ac := range cfg.Arms {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, cfg.Ctx.Err()
		}
		arm, err := runServeArm(cfg, dep, s, ai, ac)
		if err != nil {
			return nil, fmt.Errorf("serve arm %q: %w", ac.Name, err)
		}
		rep.Arms = append(rep.Arms, arm)
		if cfg.Progress != nil {
			cfg.Progress(ai+1, len(cfg.Arms))
		}
	}
	return rep, nil
}

// runServeArm boots one daemon, abuses it, probes it clean, drains it, and
// audits the counters.
func runServeArm(cfg ServeConfig, dep *serve.Deployment, s seeds, ai int, ac ServeArmConfig) (ServeArm, error) {
	arm := ServeArm{Name: ac.Name, Chaos: ac.Chaos}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return arm, err
	}
	cl := serve.NewChaosListener(raw, serve.ChaosPlan{
		Mode: ac.Chaos, Fraction: ac.ChaosFraction})
	srv := serve.New(dep, ac.Server)
	go srv.Serve(cl)
	defer srv.Drain()
	addr := raw.Addr().String()

	// Phase 1: the adversity load.
	arm.Load = serve.RunLoad(serve.LoadConfig{
		Addr: addr, Protocol: cfg.Protocol,
		Conns: ac.Conns, Requests: ac.Requests, K: ac.K,
		Burst: ac.Burst,
		Width: cfg.Deploy.Width, Height: cfg.Deploy.Height,
		Seed:  s.serveLoad(ai),
		Retry: serve.DefaultRetry(),
	})
	arm.Afflicted = cl.Afflicted()

	// Phase 2: adversity off, clean probe. Retries smooth over residual
	// shedding from the arm's (possibly tiny) admission envelope — the
	// probe's claim is that clean traffic is *eventually* all served, not
	// that the envelope grew back.
	cl.Disable()
	probe := serve.RunLoad(serve.LoadConfig{
		Addr: addr, Protocol: cfg.Protocol,
		Conns: cfg.ProbeConns, Requests: cfg.ProbeRequests, K: ac.K,
		Width: cfg.Deploy.Width, Height: cfg.Deploy.Height,
		Seed:  s.serveProbe(ai),
		Retry: serve.DefaultRetry(),
	})
	arm.ProbeForwards = probe.Forwards
	arm.ProbeOffered = int64(cfg.ProbeConns * cfg.ProbeRequests)

	// Phase 3: graceful drain, then the audit.
	arm.Drain = srv.Drain()
	arm.Stats = arm.Drain.Stats

	bad := func(format string, args ...any) {
		arm.Violations = append(arm.Violations,
			fmt.Sprintf("%s: ", ac.Name)+fmt.Sprintf(format, args...))
	}
	if err := arm.Stats.CheckConservation(); err != nil {
		bad("%v", err)
	}
	if probe.Forwards != arm.ProbeOffered {
		bad("post-chaos probe %d/%d FORWARDS (errors %d, sheds %d, transport %d, dial %d)",
			probe.Forwards, arm.ProbeOffered, probe.Errors, probe.Sheds,
			probe.TransportErrors, probe.DialErrors)
	}
	if ac.Chaos != serve.ChaosNone && arm.Afflicted == 0 {
		bad("chaos arm afflicted no connections")
	}
	if ac.ExpectShed && arm.Stats.Shed() == 0 {
		bad("overload arm shed nothing — the envelope was never exceeded")
	}
	if !arm.Drain.Clean {
		bad("drain not clean: %d requests flushed at budget expiry", arm.Drain.Flushed)
	}
	return arm, nil
}
