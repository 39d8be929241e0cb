package planar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
)

// benchNetwork deploys n nodes uniformly at the paper's §5 density (1,000
// m² per node, radio range 150 m, mean degree about 70), the density of the
// perfbench fields.
func benchNetwork(b *testing.B, n int) *network.Network {
	b.Helper()
	side := math.Sqrt(float64(n) * 1000)
	r := rand.New(rand.NewSource(1))
	nw, err := network.New(network.DeployUniform(n, side, side, r), side, side, 150)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	sinkGraph *Graph
	sinkRows  [][]int
)

// benchPlanarize times Planarize at 10³ and 10⁴ nodes. The 10⁴-node case
// has a /reference twin that runs the per-node rule at every node, so the
// edge-once build has its own before and after.
func benchPlanarize(b *testing.B, kind Kind) {
	for _, n := range []int{1000, 10000} {
		nw := benchNetwork(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkGraph = Planarize(nw, kind)
			}
		})
		if n < 10000 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d/reference", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkRows = planarizePerNode(nw, kind)
			}
		})
	}
}

func BenchmarkPlanarizeGabriel(b *testing.B) { benchPlanarize(b, Gabriel) }

func BenchmarkPlanarizeRNG(b *testing.B) { benchPlanarize(b, RelativeNeighborhood) }

func BenchmarkNextHop(b *testing.B) {
	nw := benchNetwork(b, 1000)
	g := Planarize(nw, Gabriel)
	st := Enter(g, 0, geom.Pt(900, 900))
	b.ResetTimer()
	cur := 0
	for i := 0; i < b.N; i++ {
		next, nst, ok := NextHop(g, cur, st)
		if !ok {
			b.Fatal("stuck")
		}
		cur, st = next, nst
	}
}
