package experiment

import (
	"fmt"
	"slices"
	"strings"

	"gmp/internal/stats"
)

// This file is the experiment catalog: the one table that says how every
// campaign runs. cmd/gmpsim, cmd/gmpreport and the CLI golden test dispatch
// through it, so each experiment's Default/Quick config, the run flags it
// reads, its default protocol list, the tables or report it prints and its
// oracle verdict live in exactly one entry.

// Request is one invocation of a catalog entry: the run-level knobs a
// command line carries.
type Request struct {
	// Quick selects every entry's scaled-down config.
	Quick bool
	// Config is the effective command-line campaign config: Default() or
	// Quick() overlaid with a config file, the size overrides, the fault
	// settings and the run knobs (Workers, Progress, Ctx). The main-campaign
	// entries run it as is; the others build their own config and take from
	// it the seed, the run knobs and, where they read them, the faults.
	Config Config
	// Seed is an explicit seed override (0 = none). delivery, serve and
	// stream have their own default seed and take only this one; every
	// other entry takes Config.Seed.
	Seed int64
	// Protos overrides the entry's default protocol list (nil = default).
	Protos []string
	// Shards is scale's sharded-kernel worker count (0 = one per CPU).
	Shards int
	// Pair ("A,B") and K are compare's two protocols and destination count.
	Pair string
	K    int
}

// NewRequest returns a request for the paper's Table 1 campaign, or its
// scaled-down variant when quick is set, comparing GMP with LGS at k = 12.
func NewRequest(quick bool) Request {
	req := Request{Quick: quick, Config: Default(), Pair: ProtoGMP + "," + ProtoLGS, K: 12}
	if quick {
		req.Config = Quick()
	}
	return req
}

// Output is what one catalog run prints: Text first, then every table.
type Output struct {
	Text   string
	Tables []*stats.Table
	// Violations counts oracle violations; a nonzero count fails the run.
	Violations int
}

// runFlags names the run flags an entry reads beyond the seed and the run
// knobs every entry honours.
type runFlags uint8

const (
	readsFaults runFlags = 1 << iota // -loss, -edgeloss, -crash and -arq
	readsProtos                      // -protocols
	readsSize                        // -nodes, -networks and -tasks
	readsKs                          // -ks
	readsShards                      // -shards
	readsPair                        // -pair and -k
)

// mainReads are the run flags of the entries that run the main campaign.
const mainReads = readsFaults | readsProtos | readsSize | readsKs

// Entry is one catalog experiment.
type Entry struct {
	// Name is the -experiment value.
	Name string
	// Summary is the one-line description the command usage lists.
	Summary string
	// WallClock marks entries whose output carries wall-clock columns and
	// so is not byte-reproducible; they keep their own oracles instead of a
	// golden file.
	WallClock bool
	reads     runFlags
	run       func(Request) (*Output, error)
}

// Run refuses a request that sets a run flag the entry does not read, then
// runs the entry. A size, sweep, shard or compare setting counts as set
// when it differs from NewRequest's, whether a flag or a config file set
// it.
func (e Entry) Run(req Request) (*Output, error) {
	c, def := req.Config, NewRequest(req.Quick)
	for _, f := range []struct {
		name string
		set  bool
		need runFlags
	}{
		{"-loss", c.Faults.LossRate != 0, readsFaults},
		{"-edgeloss", c.Faults.EdgeLoss != 0, readsFaults},
		{"-crash", c.CrashFraction != 0, readsFaults},
		{"-arq", c.ARQ.Enabled, readsFaults},
		{"-protocols", req.Protos != nil, readsProtos},
		{"-nodes", c.Nodes != def.Config.Nodes, readsSize},
		{"-networks", c.Networks != def.Config.Networks, readsSize},
		{"-tasks", c.TasksPerNet != def.Config.TasksPerNet, readsSize},
		{"-ks", !slices.Equal(c.Ks, def.Config.Ks), readsKs},
		{"-shards", req.Shards != def.Shards, readsShards},
		{"-pair", req.Pair != def.Pair, readsPair},
		{"-k", req.K != def.K, readsPair},
	} {
		if f.set && e.reads&f.need == 0 {
			return nil, fmt.Errorf("%s does not apply to experiment %s", f.name, e.Name)
		}
	}
	return e.run(req)
}

// Catalog returns every experiment in usage order.
func Catalog() []Entry {
	return []Entry{
		{Name: "setup", Summary: "Table 1 parameters", reads: readsSize | readsKs, run: runSetup},
		{Name: "totalhops", Summary: "Figure 11: total hops vs k", reads: mainReads,
			run: mainTable(func(r *Results) *stats.Table { return r.TotalHops })},
		{Name: "perdest", Summary: "Figure 12: per-destination hops vs k", reads: mainReads,
			run: mainTable(func(r *Results) *stats.Table { return r.PerDestHops })},
		{Name: "energy", Summary: "Figure 14: energy vs k", reads: mainReads,
			run: mainTable(func(r *Results) *stats.Table { return r.Energy })},
		{Name: "failures", Summary: "Figure 15: failed tasks vs density", reads: readsFaults | readsProtos,
			run: runFailuresEntry},
		{Name: "loss", Summary: "E-X8: Figure 15 under link loss, with and without ARQ", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				lc := pick(req.Quick, DefaultLossConfig, QuickLossConfig)
				lc.Base = req.inherit(lc.Base)
				res, err := RunLoss(lc, req.protos(ProtoGMP, ProtoPBM, ProtoLGS))
				if err != nil {
					return nil, err
				}
				return tables(res.Failures, res.Transmissions, res.Energy), nil
			}},
		{Name: "lambda", Summary: "A-3: PBM λ ablation at the sweep's middle k", reads: readsFaults | readsSize | readsKs,
			run: func(req Request) (*Output, error) {
				k := 12
				if ks := req.Config.Ks; len(ks) > 0 {
					k = ks[len(ks)/2]
				}
				return table(LambdaSweep(req.Config, k))
			}},
		{Name: "compare", Summary: "paired comparison of two protocols (-pair A,B -k K)", reads: readsFaults | readsSize | readsPair,
			run: func(req Request) (*Output, error) {
				parts := strings.Split(req.Pair, ",")
				if len(parts) != 2 {
					return nil, fmt.Errorf("-pair wants A,B; got %q", req.Pair)
				}
				res, err := CompareProtocols(req.Config, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), req.K)
				if err != nil {
					return nil, err
				}
				return &Output{Text: res.String()}, nil
			}},
		{Name: "robustness", Summary: "E-X1: delivery under random node failures", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				rc := pick(req.Quick, DefaultRobustnessConfig, QuickRobustnessConfig)
				rc.Base = req.inherit(rc.Base)
				return table(RunRobustness(rc, req.protos(ProtoGMP, ProtoPBM, ProtoLGS, ProtoGRD)))
			}},
		{Name: "localization", Summary: "E-X2: GPS error on reported positions", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				lc := pick(req.Quick, DefaultLocalizationConfig, QuickLocalizationConfig)
				lc.Base = req.inherit(lc.Base)
				res, err := RunLocalization(lc, req.protos(ProtoGMP, ProtoPBM, ProtoLGS, ProtoGRD))
				if err != nil {
					return nil, err
				}
				return tables(res.Delivery, res.TotalHops), nil
			}},
		{Name: "staleness", Summary: "E-X3: stale destination coordinates under mobility", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				sc := pick(req.Quick, DefaultStalenessConfig, QuickStalenessConfig)
				sc.Base = req.inherit(sc.Base)
				return table(RunStaleness(sc, req.protos(ProtoGMP, ProtoPBM, ProtoLGS, ProtoGRD)))
			}},
		{Name: "lifetime", Summary: "E-X4: tasks until first battery death and first failed delivery", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				lc := pick(req.Quick, DefaultLifetimeConfig, QuickLifetimeConfig)
				lc.Base = req.inherit(lc.Base)
				res, err := RunLifetime(lc, req.protos(ProtoGMP, ProtoPBM, ProtoLGS, ProtoGRD))
				if err != nil {
					return nil, err
				}
				return tables(res.FirstDeath, res.FirstFailure), nil
			}},
		{Name: "load", Summary: "E-X5: delivery latency under concurrent sessions", reads: readsFaults | readsProtos,
			run: func(req Request) (*Output, error) {
				lc := pick(req.Quick, DefaultLoadConfig, QuickLoadConfig)
				lc.Base = req.inherit(lc.Base)
				return table(RunLoad(lc, req.protos(ProtoGMP, ProtoPBM, ProtoGRD)))
			}},
		{Name: "beaconing", Summary: "E-X6: HELLO beacon period vs table accuracy and energy",
			run: func(req Request) (*Output, error) {
				bc := pick(req.Quick, DefaultBeaconConfig, QuickBeaconConfig)
				bc.Base = req.inherit(bc.Base)
				res, err := RunBeaconing(bc)
				if err != nil {
					return nil, err
				}
				return tables(res.PosError, res.MissingFrac, res.EnergyPerHour), nil
			}},
		{Name: "clustering", Summary: "E-X7: multicast's advantage vs destination clustering", reads: readsFaults | readsProtos,
			run: func(req Request) (*Output, error) {
				cc := pick(req.Quick, DefaultClusteringConfig, QuickClusteringConfig)
				cc.Base = req.inherit(cc.Base)
				return table(RunClustering(cc, req.protos(ProtoGMP, ProtoPBM, ProtoLGS, ProtoGRD)))
			}},
		{Name: "chaos", Summary: "E-X9: randomized fault schedules under the invariant oracle", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				cc := pick(req.Quick, DefaultChaosConfig, QuickChaosConfig)
				cc.Base = req.inherit(cc.Base)
				cc.Protos = req.protos(cc.Protos...)
				rep, err := RunChaos(cc)
				if err != nil {
					return nil, err
				}
				return &Output{Text: rep.Render(), Violations: len(rep.Violations)}, nil
			}},
		{Name: "churn", Summary: "E-X11: membership churn and mobility under the invariant oracle", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				cc := pick(req.Quick, DefaultChurnConfig, QuickChurnConfig)
				cc.Base = req.inherit(cc.Base)
				cc.Protos = req.protos(cc.Protos...)
				rep, err := RunChurn(cc)
				if err != nil {
					return nil, err
				}
				return &Output{Text: rep.Render(), Violations: len(rep.Violations)}, nil
			}},
		{Name: "scale", Summary: "E-X10: 10⁴ → 10⁶ nodes on the sharded kernel (-shards N)", WallClock: true, reads: readsProtos | readsShards,
			run: func(req Request) (*Output, error) {
				sc := pick(req.Quick, DefaultScaleConfig, QuickScaleConfig)
				sc.Seed, sc.Progress, sc.Ctx = req.Config.Seed, req.Config.Progress, req.Config.Ctx
				sc.Shards = req.Shards
				sc.Protos = req.protos(sc.Protos...)
				rep, err := RunScale(sc)
				if err != nil {
					return nil, err
				}
				return &Output{Text: rep.Render(), Violations: len(rep.Violations())}, nil
			}},
		{Name: "delivery", Summary: "E-X12: delivery guarantee on adversarial topologies", reads: readsProtos,
			run: func(req Request) (*Output, error) {
				dc := pick(req.Quick, DefaultDeliveryConfig, QuickDeliveryConfig)
				if req.Seed != 0 {
					dc.Seed = req.Seed
				}
				dc.Workers, dc.Progress, dc.Ctx = req.Config.Workers, req.Config.Progress, req.Config.Ctx
				dc.Protos = req.protos(dc.Protos...)
				rep, err := RunDelivery(dc)
				if err != nil {
					return nil, err
				}
				return &Output{Text: rep.Render(), Violations: len(rep.Violations())}, nil
			}},
		{Name: "serve", Summary: "E-X13: gmpd under overload and transport chaos", WallClock: true,
			run: func(req Request) (*Output, error) {
				sc := pick(req.Quick, DefaultServeConfig, QuickServeConfig)
				if req.Seed != 0 {
					sc.Seed = req.Seed
				}
				sc.Progress, sc.Ctx = req.Config.Progress, req.Config.Ctx
				rep, err := RunServe(sc)
				if err != nil {
					return nil, err
				}
				return &Output{Text: rep.Render(), Violations: len(rep.Violations())}, nil
			}},
		{Name: "stream", Summary: "E-X14: streamed routes vs per-hop, memo cache on/off", WallClock: true,
			run: func(req Request) (*Output, error) {
				tc := pick(req.Quick, DefaultStreamConfig, QuickStreamConfig)
				if req.Seed != 0 {
					tc.Seed = req.Seed
				}
				tc.Progress, tc.Ctx = req.Config.Progress, req.Config.Ctx
				rep, err := RunStream(tc)
				if err != nil {
					return nil, err
				}
				return &Output{Text: rep.Render(), Violations: len(rep.Violations())}, nil
			}},
		{Name: "all", Summary: "setup, Figures 11, 12 and 14 with the failure rate, and Figure 15", reads: mainReads,
			run: func(req Request) (*Output, error) {
				out, err := runSetup(req)
				if err != nil {
					return nil, err
				}
				res, err := RunMain(req.Config, req.protos(AllProtocols()...))
				if err != nil {
					return nil, err
				}
				fig15, err := runFailuresEntry(req)
				if err != nil {
					return nil, err
				}
				out.Tables = append(out.Tables, res.TotalHops, res.PerDestHops, res.Energy, res.FailureRate)
				out.Tables = append(out.Tables, fig15.Tables...)
				return out, nil
			}},
	}
}

// Lookup finds the catalog entry named name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// inherit carries the request's seed, run knobs and fault settings onto an
// entry's base config. Entries whose drivers build their own engines do not
// read the fault settings, and Entry.Run refuses a request that sets them.
func (req Request) inherit(base Config) Config {
	c := req.Config
	base.Seed, base.Workers, base.Progress, base.Ctx = c.Seed, c.Workers, c.Progress, c.Ctx
	base.Faults, base.CrashFraction, base.ARQ = c.Faults, c.CrashFraction, c.ARQ
	return base
}

// protos is the request's protocol list, or def when it names none.
func (req Request) protos(def ...string) []string {
	if req.Protos != nil {
		return req.Protos
	}
	return def
}

// pick returns the quick or the default variant of an entry's config.
func pick[T any](quick bool, def, q func() T) T {
	if quick {
		return q()
	}
	return def()
}

func tables(ts ...*stats.Table) *Output { return &Output{Tables: ts} }

func table(t *stats.Table, err error) (*Output, error) {
	if err != nil {
		return nil, err
	}
	return tables(t), nil
}

// mainTable runs the main campaign and prints one of its figures.
func mainTable(fig func(*Results) *stats.Table) func(Request) (*Output, error) {
	return func(req Request) (*Output, error) {
		res, err := RunMain(req.Config, req.protos(AllProtocols()...))
		if err != nil {
			return nil, err
		}
		return tables(fig(res)), nil
	}
}

func runFailuresEntry(req Request) (*Output, error) {
	fc := pick(req.Quick, DefaultFailureConfig, QuickFailureConfig)
	fc.Base = req.inherit(fc.Base)
	return table(RunFailures(fc, req.protos(ProtoPBM, ProtoLGS, ProtoGMP)))
}

// runSetup prints Table 1 for the request's config. It runs no campaign; a
// cancelled request still stops here, like every other entry.
func runSetup(req Request) (*Output, error) {
	cfg := req.Config
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return nil, cfg.Ctx.Err()
	}
	text := fmt.Sprintf("Table 1: simulation setup\n"+
		"  Network size        %.0fm x %.0fm\n"+
		"  Number of nodes     %d\n"+
		"  Channel data rate   %.0f Mbps\n"+
		"  Transmission power  %.1f W\n"+
		"  Receiving power     %.1f W\n"+
		"  Message size        %d B\n"+
		"  Radio range         %.0f m\n"+
		"  Networks x tasks    %d x %d\n"+
		"  Destination sweep   %v\n"+
		"  Hop budget          %d\n"+
		"  Seed                %d\n\n",
		cfg.Width, cfg.Height, cfg.Nodes, cfg.Radio.DataRateBps/1e6, cfg.Radio.TxPowerW,
		cfg.Radio.RxPowerW, cfg.Radio.MessageBytes, cfg.RadioRange, cfg.Networks,
		cfg.TasksPerNet, cfg.Ks, cfg.MaxHops, cfg.Seed)
	return &Output{Text: text}, nil
}
