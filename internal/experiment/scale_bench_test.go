package experiment

import (
	"sync"
	"testing"
)

// The scale-kernel benchmarks drive the BENCH.json hops/sec baseline:
// one 10⁵-node GMP arm through the sharded kernel at 1 and 4 shards. The
// deployment (the expensive part) is built once and shared — runScaleArm
// treats it as read-only — so b.N iterations and -count repeats measure the
// kernel alone. cmd/benchgate compares the two benchmarks' hops/s medians
// and fails CI when the 4-shard arm is less than 2× the 1-shard arm; the
// ratio gate only arms on multi-CPU runs (-cpu 4 in CI), since a single CPU
// cannot show parallel speedup.
var (
	scaleBenchOnce sync.Once
	scaleBenchCfg  ScaleConfig
	scaleBenchDep  *scaleBench
	scaleBenchErr  error
)

func scaleBenchSetup(b *testing.B) (ScaleConfig, *scaleBench) {
	b.Helper()
	scaleBenchOnce.Do(func() {
		scaleBenchCfg = DefaultScaleConfig()
		scaleBenchCfg.NodeCounts = []int{100_000}
		// Twice the sweep's session count: more concurrent sessions mean
		// more events per synchronization window, which is the workload the
		// speedup claim is about.
		scaleBenchCfg.Sessions = 64
		scaleBenchCfg.FaultArm = false
		scaleBenchDep, scaleBenchErr = buildScaleBench(scaleBenchCfg, 0)
	})
	if scaleBenchErr != nil {
		b.Fatal(scaleBenchErr)
	}
	return scaleBenchCfg, scaleBenchDep
}

func benchScaleArm(b *testing.B, shards int) {
	cfg, dep := scaleBenchSetup(b)
	cfg.Shards = shards
	b.ResetTimer()
	var tx int
	var sec float64
	for i := 0; i < b.N; i++ {
		arm, err := runScaleArm(cfg, dep, ProtoGMP, false)
		if err != nil {
			b.Fatal(err)
		}
		if arm.DeliveredDests != arm.DestCount {
			b.Fatalf("arm missed destinations: %d/%d", arm.DeliveredDests, arm.DestCount)
		}
		tx += arm.Transmissions
		sec += arm.RunSec
	}
	b.ReportMetric(float64(tx)/sec, "hops/s")
}

func BenchmarkScaleShards1(b *testing.B) { benchScaleArm(b, 1) }
func BenchmarkScaleShards4(b *testing.B) { benchScaleArm(b, 4) }
