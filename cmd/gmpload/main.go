// Command gmpload drives a running gmpd with synthetic decision traffic and
// reports what the daemon sustained: decisions/sec plus p50/p95/p99 answer
// latency, with the full client-side ledger (answers by kind, retries,
// transport errors) that the E-X13 campaign audits against the server's own
// conservation counters.
//
// The generator runs -conns concurrent session clients, each issuing -n
// requests of -k random destination locations over the deployment geometry.
// Closed loop by default (next request as soon as the answer lands); -rate
// switches each connection to an open loop at a fixed offered rate. SHED
// answers are retried with jittered exponential backoff under a hard
// attempt/time budget — the cooperative half of the daemon's load-shedding
// contract.
//
// -route switches to whole-route workloads: each "request" is one complete
// multicast walk, and latency percentiles are per route. "stream" issues a
// single ROUTE and reads the server's HOP stream (-quiet suppresses it);
// "perhop" walks the identical routes with serve.Client.RoutePerHop, one
// DECIDE round trip per decision — the baseline the streamed mode is
// measured against, and the same walker the execution-mode oracle
// (TestExecutionModesAgree) checks against the engine. Both modes answer
// alike: a walk the daemon refuses counts under errors or sheds, not as a
// route.
//
// Usage:
//
//	gmpload -addr 127.0.0.1:7447 -conns 8 -n 500 -k 10
//	gmpload -addr 127.0.0.1:7447 -rate 200 -protocol PBM
//	gmpload -addr 127.0.0.1:7447 -route stream -n 50 -k 20
//	gmpload -addr 127.0.0.1:7447 -route perhop -n 50 -k 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gmp/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmpload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7447", "gmpd address")
		protocol = fs.String("protocol", "GMP", "protocol to request decisions for")
		conns    = fs.Int("conns", 4, "concurrent session clients")
		requests = fs.Int("n", 100, "requests (or routes, with -route) per connection")
		rate     = fs.Float64("rate", 0, "open-loop requests/sec per connection (0 = closed loop)")
		k        = fs.Int("k", 5, "destinations per request")
		width    = fs.Float64("width", 1200, "deployment width requests draw locations from")
		height   = fs.Float64("height", 1200, "deployment height")
		seed     = fs.Int64("seed", 1, "workload seed")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request round-trip timeout")
		payload  = fs.Int("payload", 0, "application payload bytes per request")
		retries  = fs.Int("retries", 5, "max attempts per request on SHED (1 = no retry)")

		route  = fs.String("route", "", "whole-route mode: stream (one ROUTE, server walks) or perhop (one DECIDE per hop)")
		budget = fs.Int("budget", 0, "per-copy hop budget for -route (0 = server default)")
		quiet  = fs.Bool("quiet", false, "with -route stream: suppress the HOP stream, summary only")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *route {
	case "", "stream", "perhop":
	default:
		return fmt.Errorf("unknown -route %q (want stream or perhop)", *route)
	}

	pol := serve.DefaultRetry()
	pol.MaxAttempts = *retries

	rep := serve.RunLoad(serve.LoadConfig{
		Addr: *addr, Protocol: *protocol,
		Conns: *conns, Requests: *requests, Rate: *rate,
		K: *k, Width: *width, Height: *height,
		Seed: *seed, Timeout: *timeout, Payload: *payload,
		Retry:     pol,
		RouteMode: *route, HopBudget: *budget, Quiet: *quiet,
	})
	if *route != "" {
		printRouteReport(out, rep)
	} else {
		printReport(out, rep)
	}
	if rep.DialErrors > 0 && rep.Answered() == 0 && rep.Routes == 0 {
		return fmt.Errorf("no connection reached the daemon at %s", *addr)
	}
	return nil
}

// printReport renders the ledger. Offered = conns*n is what the schedule
// wanted; everything below accounts for where each request ended up.
func printReport(out io.Writer, rep *serve.LoadReport) {
	fmt.Fprintf(out, "gmpload: %d answered in %v  (%.0f decisions/s sustained)\n",
		rep.Answered(), rep.Elapsed.Round(time.Millisecond), rep.DecisionsPerSec())
	fmt.Fprintf(out, "gmpload: forwards %d  errors %d  sheds %d  retries %d  transport-errors %d  dial-errors %d  drains %d\n",
		rep.Forwards, rep.Errors, rep.Sheds, rep.Retries, rep.TransportErrors, rep.DialErrors, rep.Drains)
	if len(rep.LatencyMs) > 0 {
		fmt.Fprintf(out, "gmpload: latency p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
			rep.Percentile(0.50), rep.Percentile(0.95), rep.Percentile(0.99))
	}
}

// printRouteReport renders the whole-route ledger: route completion rate,
// the transmissions those walks performed, and per-route latency
// percentiles — the numbers a stream-vs-perhop pair is compared on.
func printRouteReport(out io.Writer, rep *serve.LoadReport) {
	fmt.Fprintf(out, "gmpload: %d routes in %v  (%.0f routes/s, %.0f hops/s sustained)\n",
		rep.Routes, rep.Elapsed.Round(time.Millisecond), rep.RoutesPerSec(), rep.RouteHopsPerSec())
	fmt.Fprintf(out, "gmpload: decides sent %d  route hops %d  errors %d  sheds %d  transport-errors %d  dial-errors %d  drains %d\n",
		rep.Sent, rep.RouteHops, rep.Errors, rep.Sheds, rep.TransportErrors, rep.DialErrors, rep.Drains)
	if len(rep.LatencyMs) > 0 {
		fmt.Fprintf(out, "gmpload: route latency p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
			rep.Percentile(0.50), rep.Percentile(0.95), rep.Percentile(0.99))
	}
}
