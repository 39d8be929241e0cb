// Command gmpsim regenerates the paper's evaluation figures (Wu & Candan,
// "GMP: Distributed Geographic Multicast Routing in Wireless Sensor
// Networks", ICDCS 2006) on the library's discrete-event simulator. Every
// experiment is an entry of the experiment catalog (internal/experiment,
// catalog.go); the list below is generated from it.
//
// Usage:
//
//	gmpsim -experiment setup         # Table 1 parameters
//	gmpsim -experiment totalhops     # Figure 11: total hops vs k
//	gmpsim -experiment perdest       # Figure 12: per-destination hops vs k
//	gmpsim -experiment energy        # Figure 14: energy vs k
//	gmpsim -experiment failures      # Figure 15: failed tasks vs density
//	gmpsim -experiment loss          # E-X8: Figure 15 under link loss, with and without ARQ
//	gmpsim -experiment lambda        # A-3: PBM λ ablation at the sweep's middle k
//	gmpsim -experiment compare       # paired comparison of two protocols (-pair A,B -k K)
//	gmpsim -experiment robustness    # E-X1: delivery under random node failures
//	gmpsim -experiment localization  # E-X2: GPS error on reported positions
//	gmpsim -experiment staleness     # E-X3: stale destination coordinates under mobility
//	gmpsim -experiment lifetime      # E-X4: tasks until first battery death and first failed delivery
//	gmpsim -experiment load          # E-X5: delivery latency under concurrent sessions
//	gmpsim -experiment beaconing     # E-X6: HELLO beacon period vs table accuracy and energy
//	gmpsim -experiment clustering    # E-X7: multicast's advantage vs destination clustering
//	gmpsim -experiment chaos         # E-X9: randomized fault schedules under the invariant oracle
//	gmpsim -experiment churn         # E-X11: membership churn and mobility under the invariant oracle
//	gmpsim -experiment scale         # E-X10: 10⁴ → 10⁶ nodes on the sharded kernel (-shards N)
//	gmpsim -experiment delivery      # E-X12: delivery guarantee on adversarial topologies
//	gmpsim -experiment serve         # E-X13: gmpd under overload and transport chaos
//	gmpsim -experiment stream        # E-X14: streamed routes vs per-hop, memo cache on/off
//	gmpsim -experiment all           # setup, Figures 11, 12 and 14 with the failure rate, and Figure 15
//
// The -quick flag runs a scaled-down campaign (seconds instead of minutes);
// -csv switches output to CSV for plotting. -seed, -progress and SIGINT
// reach every experiment. The -loss, -edgeloss, -crash and -arq flags
// inject faults (lossy links, node crashes, hop-by-hop ARQ) into every
// engine of the experiments that build their engines from the campaign
// config: all, totalhops, perdest, energy, failures, lambda, compare, load
// and clustering. -protocols replaces the default protocol list of every
// experiment that sweeps protocols. Any of these flags given to an
// experiment it does not apply to is refused with an error naming both.
// -experiment loss runs the dedicated loss-rate sweep comparing its
// protocols with and without ARQ.
//
// Every experiment except scale, serve and stream (which run their arms one
// at a time) runs on the campaign runner's bounded worker pool; -workers
// caps the pool (0 = one worker per CPU) and -progress renders a
// live cells-completed counter on stderr. Output is byte-identical for any
// worker count.
//
// Profiling: -cpuprofile, -memprofile and -trace write the standard pprof /
// runtime-trace artifacts for the whole run; -pprof addr serves
// net/http/pprof on addr for live inspection of long campaigns, e.g.
//
//	gmpsim -experiment all -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile
package main
