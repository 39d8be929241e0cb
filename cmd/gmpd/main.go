// Command gmpd runs the hardened routing-decision daemon: a long-lived TCP
// service that answers stateless geographic-multicast routing decisions over
// the wire package's session protocol, for any distributed protocol in the
// routing registry (GMP by default).
//
// The daemon holds one deployment (a seeded uniform field plus its planar
// substrate) and turns frames into forward sets — the §2 location-is-address
// contract makes each decision a pure function of (deployment, frame), so
// the service keeps no per-packet state. Hardening is the deliverable:
// bounded admission with typed SHED answers, per-request deadlines,
// per-session idle timeouts, send backpressure with slow-client eviction,
// panic-isolated workers, and graceful drain on SIGINT/SIGTERM (stop
// accepting, finish in-flight work within -drain-budget, shed and report the
// rest, exit 0).
//
// Usage:
//
//	gmpd -addr 127.0.0.1:7447                 # serve the default field
//	gmpd -nodes 2000 -width 2000 -height 2000 # a bigger deployment
//	gmpd -workers 8 -queue 1024               # a beefier service envelope
//
// Beyond single decisions, a session can stream a whole multicast walk:
// one ROUTE request drives the server-side continuation (HOP per
// transmission, ROUTE_DONE summary), and a shared memo cache (-cache)
// recalls repeated decisions byte-identically. Profiling mirrors gmpsim:
// -cpuprofile/-memprofile write pprof artifacts, -pprof serves live
// net/http/pprof.
//
// Drive it with gmpload (-route for streamed walks), or any client
// speaking internal/wire's session protocol (HELLO, then DECIDEs/ROUTEs;
// answers are FORWARDS, HOP+ROUTE_DONE, ERROR, or SHED).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gmp/internal/planar"
	"gmp/internal/profiling"
	"gmp/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gmpd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for tests: stop triggers the graceful
// drain (main wires it to SIGINT/SIGTERM), and ready, when non-nil, receives
// the bound address once the listener is up.
func run(args []string, out io.Writer, stop <-chan os.Signal, ready func(addr string)) error {
	fs := flag.NewFlagSet("gmpd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7447", "listen address")
		nodes      = fs.Int("nodes", 0, "deployment node count (0 = paper default 600)")
		width      = fs.Float64("width", 0, "field width in meters (0 = 1200)")
		height     = fs.Float64("height", 0, "field height in meters (0 = 1200)")
		radio      = fs.Float64("range", 0, "radio range in meters (0 = 100)")
		planarizer = fs.String("planarizer", "gabriel", "perimeter substrate: gabriel|rng")
		dseed      = fs.Int64("seed", 1, "deployment seed")

		workers  = fs.Int("workers", 0, "decision workers (0 = default 4)")
		queue    = fs.Int("queue", 0, "admission queue depth (0 = default 256)")
		reqTO    = fs.Duration("request-timeout", 0, "per-request deadline from admission (0 = 2s)")
		idleTO   = fs.Duration("idle-timeout", 0, "session idle eviction (0 = 30s)")
		writeTO  = fs.Duration("write-timeout", 0, "per-reply write deadline (0 = 5s)")
		sendBuf  = fs.Int("send-buffer", 0, "per-session outbound reply queue (0 = 64)")
		drainBud = fs.Duration("drain-budget", 0, "graceful-drain budget for in-flight work (0 = 5s)")
		retryAft = fs.Duration("retry-after", 0, "retry hint carried in SHED answers (0 = 50ms)")
		lambda   = fs.Float64("lambda", serve.DefaultLambda, "PBM λ for FlagLambda protocols, in (0, 1]")
		k        = fs.Int("k", 0, "LGK group-size bound (0 = protocol default)")

		cacheSize = fs.Int("cache", 0, "decision memo cache entries (0 = default 4096, negative disables)")
		routeBud  = fs.Int("route-budget", 0, "default per-copy hop budget for ROUTE walks (0 = 256)")

		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		pprofSrv = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live inspection")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*lambda > 0 && *lambda <= 1) {
		return fmt.Errorf("-lambda %v: want a finite λ in (0, 1]; λ = 0 cannot be served, because serve.Config's zero Lambda selects the default %v", *lambda, serve.DefaultLambda)
	}

	stopProf, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuProf, MemProfile: *memProf, PprofAddr: *pprofSrv,
		Name: "gmpd"})
	if err != nil {
		return err
	}
	defer stopProf()

	dc := serve.DefaultDeploy()
	dc.Seed = *dseed
	if *nodes > 0 {
		dc.Nodes = *nodes
	}
	if *width > 0 {
		dc.Width = *width
	}
	if *height > 0 {
		dc.Height = *height
	}
	if *radio > 0 {
		dc.RadioRange = *radio
	}
	switch *planarizer {
	case "gabriel":
		dc.Planarizer = planar.Gabriel
	case "rng":
		dc.Planarizer = planar.RelativeNeighborhood
	default:
		return fmt.Errorf("unknown -planarizer %q (want gabriel or rng)", *planarizer)
	}

	dep, err := serve.NewDeployment(dc)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.New(dep, serve.Config{
		Workers: *workers, QueueDepth: *queue,
		RequestTimeout: *reqTO, IdleTimeout: *idleTO, WriteTimeout: *writeTO,
		SendBuffer: *sendBuf, DrainBudget: *drainBud, RetryAfter: *retryAft,
		Lambda: *lambda, K: *k,
		CacheSize: *cacheSize, RouteBudget: *routeBud,
	})

	fmt.Fprintf(out, "gmpd: serving %d nodes (%.0fx%.0f m, range %.0f, %s) on %s\n",
		dc.Nodes, dc.Width, dc.Height, dc.RadioRange, dc.Planarizer, ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-stop:
		fmt.Fprintln(out, "gmpd: draining...")
	case err := <-serveErr:
		// Listener died without a drain: surface it after shutting down.
		rep := srv.Drain()
		printDrain(out, rep)
		return err
	}
	rep := srv.Drain()
	<-serveErr // accept loop returns nil once the listener closes for drain
	printDrain(out, rep)
	return nil
}

// printDrain renders the drain report: the shed/answer accounting the
// operator needs to know whether the shutdown lost anything (it cannot lose
// silently — everything unserved was shed with an answer).
func printDrain(out io.Writer, rep serve.DrainReport) {
	st := rep.Stats
	state := "clean"
	if !rep.Clean {
		state = fmt.Sprintf("budget hit, %d flushed", rep.Flushed)
	}
	fmt.Fprintf(out, "gmpd: drained in %v (%s)\n", rep.Elapsed.Round(time.Millisecond), state)
	fmt.Fprintf(out, "gmpd: sessions %d  admitted %d  forwards %d  routes %d (%d hops)  errors %d  shed %d (queue %d, deadline %d, draining %d)  evicted %d\n",
		st.Sessions, st.Admitted, st.AnsweredForwards, st.AnsweredRoutes, st.RouteHops,
		st.AnsweredErrors, st.Shed(), st.ShedQueue, st.ShedDeadline, st.ShedDraining, st.Evicted)
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(out, "gmpd: cache hits %d  misses %d  evictions %d\n",
			st.CacheHits, st.CacheMisses, st.CacheEvictions)
	}
	if err := st.CheckConservation(); err != nil {
		fmt.Fprintf(out, "gmpd: CONSERVATION VIOLATION: %v\n", err)
	}
}
