package serve

// The load-generator core shared by cmd/gmpload and the E-X13 campaign:
// many concurrent session clients issuing realistic decision requests
// (random source + k destination locations over the deployment geometry),
// in closed loop (back-to-back) or open loop (fixed per-connection rate),
// with the client-side retry policy applied and per-request accounting
// precise enough to audit the server's exactly-once answer contract from
// the outside.

import (
	"math/rand"
	"sync"
	"time"

	"gmp/internal/geom"
	"gmp/internal/stats"
	"gmp/internal/wire"
)

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Addr is the daemon's address; Protocol the HELLO protocol name.
	Addr     string
	Protocol string
	// Conns is the number of concurrent session clients.
	Conns int
	// Requests is the per-connection request count.
	Requests int
	// Rate, when positive, paces each connection to at most this many
	// requests/second; zero selects closed loop (next request as soon as
	// the previous answer arrives). The client is synchronous, so a late
	// answer still delays the next tick's request — Rate is a cap on
	// offered load, not a fixed-rate open loop.
	Rate float64
	// K is the destination-group size per request.
	K int
	// Width/Height is the deployment geometry requests draw locations
	// from (the client's half of the §2 location-is-address contract).
	Width, Height float64
	// Burst, when > 1, pipelines each connection in windows of Burst
	// requests sent back-to-back before any answer is read. Conns×Burst
	// requests hit the admission queue simultaneously, which makes
	// overflow (and therefore SHED answers) a certainty for any queue
	// shallower than that — the overload arm's tool. Burst mode does not
	// retry sheds; they are the measurement.
	Burst int
	// Seed drives the per-connection workload PRNGs.
	Seed int64
	// Timeout bounds each request round-trip.
	Timeout time.Duration
	// Retry is the SHED retry policy.
	Retry RetryPolicy
	// Payload is the application payload size carried per request.
	Payload int
	// RouteMode selects whole-route workloads instead of single decisions:
	// "stream" issues one ROUTE per route and reads the HOP stream;
	// "perhop" walks the same route with Client.RoutePerHop, one DECIDE
	// round trip per decision — the baseline the streamed mode is measured
	// against.
	// Empty keeps the classic single-DECIDE workload. Requests then counts
	// routes per connection, and LatencyMs records per-route latency.
	RouteMode string
	// HopBudget is the per-copy hop budget for route workloads; zero defers
	// to the server's default (stream) or DefaultRouteBudget (perhop).
	HopBudget int
	// Quiet asks the server to suppress the HOP stream in "stream" mode
	// (wire.RouteQuiet): only the ROUTE_DONE summary crosses the wire.
	Quiet bool
	// RecordRoutes keeps every ROUTE_DONE summary in the report, for
	// campaigns that audit per-destination conservation (E-X14).
	RecordRoutes bool
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Width <= 0 {
		c.Width = 1200
	}
	if c.Height <= 0 {
		c.Height = 1200
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	return c
}

// LoadReport is a load run's client-side accounting.
type LoadReport struct {
	// Sent counts requests put on the wire: DECIDEs (retries and per-hop
	// walk steps included) and ROUTEs.
	Sent int64
	// Forwards/Errors/Sheds count final answers by kind. Sheds here are
	// *final* sheds (retry budget exhausted or draining); sheds that a
	// retry later converted to an answer count only as Retries.
	Forwards int64
	Errors   int64
	Sheds    int64
	// Retries counts re-sends triggered by SHED answers.
	Retries int64
	// TransportErrors counts requests that died without an answer —
	// connection refused/reset/evicted or reply timeout. These are the
	// only requests without a protocol-level answer; the server-side
	// conservation audit covers them from the other end.
	TransportErrors int64
	// DialErrors counts connections that never completed a handshake.
	DialErrors int64
	// Drains counts DRAIN broadcasts observed.
	Drains int64
	// Routes counts completed whole-route walks (ROUTE_DONE answers, from
	// Client.Route or Client.RoutePerHop); RouteHops the transmissions they
	// performed. A walk refused by an ERROR or SHED counts there instead.
	Routes    int64
	RouteHops int64
	// RouteDones holds every ROUTE_DONE summary when RecordRoutes is set.
	RouteDones []wire.RouteDoneBody
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// LatencyMs are per-answered-request round-trip latencies (per-route in
	// the route modes).
	LatencyMs []float64
}

// Answered returns requests that got a protocol-level answer.
func (r *LoadReport) Answered() int64 { return r.Forwards + r.Errors + r.Sheds }

// DecisionsPerSec is the sustained successful-decision rate.
func (r *LoadReport) DecisionsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Forwards) / r.Elapsed.Seconds()
}

// RoutesPerSec is the sustained whole-route completion rate.
func (r *LoadReport) RoutesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Routes) / r.Elapsed.Seconds()
}

// RouteHopsPerSec is the sustained transmission rate across completed routes.
func (r *LoadReport) RouteHopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.RouteHops) / r.Elapsed.Seconds()
}

// Percentile returns the latency percentile in milliseconds for p in [0, 1]
// (the stats package's convention: 0.95 is p95).
func (r *LoadReport) Percentile(p float64) float64 {
	if len(r.LatencyMs) == 0 {
		return 0
	}
	return stats.Percentile(r.LatencyMs, p)
}

// RunLoad drives the configured load against the daemon and reports.
func RunLoad(cfg LoadConfig) *LoadReport {
	cfg = cfg.withDefaults()
	rep := &LoadReport{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < cfg.Conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			local := runConn(cfg, ci)
			mu.Lock()
			rep.Sent += local.Sent
			rep.Forwards += local.Forwards
			rep.Errors += local.Errors
			rep.Sheds += local.Sheds
			rep.Retries += local.Retries
			rep.TransportErrors += local.TransportErrors
			rep.DialErrors += local.DialErrors
			rep.Drains += local.Drains
			rep.Routes += local.Routes
			rep.RouteHops += local.RouteHops
			rep.RouteDones = append(rep.RouteDones, local.RouteDones...)
			rep.LatencyMs = append(rep.LatencyMs, local.LatencyMs...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}

// runConn is one connection's worth of load. Each connection derives its
// own PRNG stream from the seed and its index, so runs are reproducible
// for any interleaving.
func runConn(cfg LoadConfig, ci int) *LoadReport {
	local := &LoadReport{}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)*1000003))
	c, err := Dial(cfg.Addr, cfg.Protocol, cfg.Timeout)
	if err != nil {
		local.DialErrors++
		// The offered requests never made it to the wire; nothing to count
		// against the server.
		return local
	}
	defer c.Close()

	helloID := c.nextID
	switch {
	case cfg.RouteMode != "":
		runRoutes(cfg, c, rng, local)
	case cfg.Burst > 1:
		runBurst(cfg, c, rng, local)
	default:
		runDecides(cfg, c, rng, local)
	}
	// The client spends one request ID per request it puts on the wire, and
	// the server broadcasts DRAIN once per session.
	local.Sent = int64(c.nextID - helloID)
	if c.Drained {
		local.Drains++
	}
	return local
}

// tally books one final answer by kind. A non-zero t0 records the answer's
// latency when it is a FORWARDS or a ROUTE_DONE.
func (r *LoadReport) tally(rep Reply, t0 time.Time, record bool) {
	switch rep.Kind {
	case wire.MsgForwards:
		r.Forwards++
	case wire.MsgRouteDone:
		r.Routes++
		r.RouteHops += int64(rep.Done.Hops)
		if record {
			r.RouteDones = append(r.RouteDones, rep.Done)
		}
	case wire.MsgError:
		r.Errors++
		return
	case wire.MsgShed:
		r.Sheds++
		return
	}
	if !t0.IsZero() {
		r.LatencyMs = append(r.LatencyMs, float64(time.Since(t0))/float64(time.Millisecond))
	}
}

// runDecides is the single-decision schedule: one DECIDE at a time, SHEDs
// retried under cfg.Retry, paced by cfg.Rate when it is positive.
func runDecides(cfg LoadConfig, c *Client, rng *rand.Rand, local *LoadReport) {
	var tick *time.Ticker
	if cfg.Rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer tick.Stop()
	}
	for i := 0; i < cfg.Requests; i++ {
		if tick != nil {
			<-tick.C
		}
		body := randomRequest(cfg, rng)
		t0 := time.Now()
		reply, retries, err := c.DoRetry(body, cfg.Retry, rng)
		local.Retries += int64(retries)
		if err != nil && err != ErrRetryBudget && err != ErrDrained {
			// The session is gone; the rest of this connection's schedule
			// is never offered.
			local.TransportErrors++
			return
		}
		local.tally(reply, t0, false)
	}
}

// runBurst is the pipelined schedule: windows of Burst requests on the wire
// before the first answer is read. Every sent request is accounted — an
// answer by kind, or a transport error if the connection dies with requests
// outstanding. Per-request latency is not meaningful under pipelining and
// is not recorded.
func runBurst(cfg LoadConfig, c *Client, rng *rand.Rand, local *LoadReport) {
	for done := 0; done < cfg.Requests; {
		window := cfg.Burst
		if window > cfg.Requests-done {
			window = cfg.Requests - done
		}
		for j := 0; j < window; j++ {
			if _, err := c.Send(randomRequest(cfg, rng)); err != nil {
				local.TransportErrors++
				return
			}
		}
		for j := 0; j < window; j++ {
			_, rep, err := c.Recv()
			if err != nil {
				local.TransportErrors += int64(window - j)
				return
			}
			local.tally(rep, time.Time{}, false)
		}
		done += window
	}
}

// runRoutes is the whole-route schedule: Requests routes per connection,
// each either one streamed ROUTE ("stream") or a client-driven walk paying
// one DECIDE round trip per decision ("perhop"). Both walk the same routes
// from the same PRNG stream and answer alike, so a stream-vs-perhop pair
// measures exactly the protocol difference (cmd/gmpload -route; E-X14 end
// to end).
func runRoutes(cfg LoadConfig, c *Client, rng *rand.Rand, local *LoadReport) {
	route := c.Route
	if cfg.RouteMode == "perhop" {
		route = c.RoutePerHop
	}
	for i := 0; i < cfg.Requests; i++ {
		rb := wire.RouteBody{Budget: uint16(cfg.HopBudget), Frame: randomRequest(cfg, rng).Frame}
		if cfg.Quiet {
			rb.Flags |= wire.RouteQuiet
		}
		t0 := time.Now()
		rep, err := route(rb, nil)
		if err != nil {
			local.TransportErrors++
			return
		}
		local.tally(rep, t0, cfg.RecordRoutes)
	}
}

// randomRequest builds one OpStart decision request: a random source and K
// random destination locations in the deployment region. The server
// resolves each location to its closest node — the client needs only the
// geometry, which is the whole point of location-as-address.
func randomRequest(cfg LoadConfig, rng *rand.Rand) wire.DecideBody {
	pt := func() geom.Point {
		return geom.Pt(rng.Float64()*cfg.Width, rng.Float64()*cfg.Height)
	}
	f := &wire.Frame{Source: pt()}
	f.NextHop = f.Source // OpStart: the source decides
	for i := 0; i < cfg.K; i++ {
		f.Dests = append(f.Dests, pt())
	}
	if cfg.Payload > 0 {
		f.Payload = make([]byte, cfg.Payload)
		rng.Read(f.Payload)
	}
	data, _ := wire.Encode(f, 0)
	return wire.DecideBody{Op: wire.OpStart, Frame: data}
}
