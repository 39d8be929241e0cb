package network

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Benchmark results land here so the compiler keeps the measured calls.
var sinkNetwork *Network

// benchNodes deploys n nodes uniformly at the paper's §5 density (1,000 m²
// per node, radio range 150 m, mean degree about 70), the density of the
// perfbench fields, and returns them with the region's side.
func benchNodes(n int) ([]Node, float64) {
	side := math.Sqrt(float64(n) * 1000)
	return DeployUniform(n, side, side, rand.New(rand.NewSource(1))), side
}

// BenchmarkNetworkNew times New at 10⁴ nodes: the cell grid, the tiles and
// the CSR adjacency.
func BenchmarkNetworkNew(b *testing.B) {
	for _, n := range []int{10000} {
		nodes, side := benchNodes(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nw, err := New(nodes, side, side, 150)
				if err != nil {
					b.Fatal(err)
				}
				sinkNetwork = nw
			}
		})
	}
}

// BenchmarkWithFailures times a failure view of a 10⁴-node network with
// every tenth radio dead: the dead-radio marks and the filtered CSR.
func BenchmarkWithFailures(b *testing.B) {
	for _, n := range []int{10000} {
		nodes, side := benchNodes(n)
		nw, err := New(nodes, side, side, 150)
		if err != nil {
			b.Fatal(err)
		}
		var failed []int
		for id := 0; id < n; id += 10 {
			failed = append(failed, id)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkNetwork = nw.WithFailures(failed)
			}
		})
	}
}
