package steiner

import (
	"fmt"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func BenchmarkSteinerPoint(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([][3]geom.Point, 256)
	for i := range pts {
		pts[i] = [3]geom.Point{
			geom.Pt(r.Float64()*1000, r.Float64()*1000),
			geom.Pt(r.Float64()*1000, r.Float64()*1000),
			geom.Pt(r.Float64()*1000, r.Float64()*1000),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		geom.SteinerPoint(p[0], p[1], p[2])
	}
}

func BenchmarkReductionRatio(b *testing.B) {
	s := geom.Pt(0, 0)
	u := geom.Pt(800, 450)
	v := geom.Pt(820, 530)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReductionRatio(s, u, v)
	}
}

// benchmarkBuild times build on 32 random K-destination sets around a
// central source.
func benchmarkBuild(b *testing.B, k int, opts Options, build func(geom.Point, []Dest, Options)) {
	r := rand.New(rand.NewSource(2))
	src := geom.Pt(500, 500)
	sets := make([][]Dest, 32)
	for i := range sets {
		sets[i] = randDests(r, k, 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(src, sets[i%len(sets)], opts)
	}
}

// BenchmarkRRSTRBuild times the lazy Builder.Build, reused across builds as
// GMP's decision arenas are, against its eager reference twin on the same
// sets. The lazy runs report exact Steiner-point evaluations per build
// (evals/op) next to the pairs pushed (pairs/op), which is the number the
// eager reference evaluates.
func BenchmarkRRSTRBuild(b *testing.B) {
	for _, k := range []int{5, 12, 25, 50, 120} {
		for _, c := range []struct {
			name string
			opts Options
		}{{"basic", Options{}}, {"aware", Options{RadioRange: 150, RadioAware: true}}} {
			b.Run(fmt.Sprintf("k=%d/%s", k, c.name), func(b *testing.B) {
				var lazy Builder
				pairs, evals := 0, 0
				benchmarkBuild(b, k, c.opts, func(s geom.Point, d []Dest, o Options) {
					lazy.Build(s, d, o)
					pairs += lazy.pairs
					evals += lazy.evals
				})
				b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
				b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
			})
			b.Run(fmt.Sprintf("k=%d/%s/reference", k, c.name), func(b *testing.B) {
				var ref refBuilder
				benchmarkBuild(b, k, c.opts, func(s geom.Point, d []Dest, o Options) { ref.build(s, d, o) })
			})
		}
	}
}

func BenchmarkEuclideanMST(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	src := geom.Pt(500, 500)
	dests := randDests(r, 25, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EuclideanMST(src, dests)
	}
}

func BenchmarkKMBGrid(b *testing.B) {
	g := gridGraph(30, 30)
	terms := []int{0, 29, 870, 899, 450, 435}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmbHops(g, terms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMBWeighted measures one Euclidean-length KMB, the SMT
// baseline's tree, on a Table 1 unit-disk graph (1000 nodes on 1000×1000 m,
// 150 m range) at K terminals, in a reused arena as SMT runs it: with the
// straight-line cuts (positions set, as network.Graph gives them), without
// them, and for the eager reference twin. The first two arms report the
// vertices their Dijkstra rows expand per row.
func BenchmarkKMBWeighted(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	g := unitDiskGraph(pts, 150)
	uncut := g
	uncut.Pos = nil
	dist := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	for _, k := range []int{4, 12, 25} {
		sets := make([][]int, 64)
		for i := range sets {
			sets[i] = r.Perm(len(pts))[:k]
		}
		for _, c := range []struct {
			name string
			kmb  func(a *KMBArena, terms []int) ([][2]int, error)
		}{
			{"fast", func(a *KMBArena, terms []int) ([][2]int, error) { return a.KMBWeighted(g, terms) }},
			{"uncut", func(a *KMBArena, terms []int) ([][2]int, error) { return a.KMBWeighted(uncut, terms) }},
			{"reference", func(_ *KMBArena, terms []int) ([][2]int, error) {
				return referenceKMBWeighted(Graph{N: g.N, Off: g.Off, Nbr: g.Nbr}, terms, dist)
			}},
		} {
			b.Run(fmt.Sprintf("k=%d/%s", k, c.name), func(b *testing.B) {
				b.ReportAllocs()
				var a KMBArena
				expanded := 0
				for i := 0; i < b.N; i++ {
					if _, err := c.kmb(&a, sets[i%len(sets)]); err != nil {
						b.Fatal(err)
					}
					expanded += a.s.expanded
				}
				if expanded > 0 {
					// Each call runs k-1 rows over k distinct terminals.
					b.ReportMetric(float64(expanded)/float64(b.N*(k-1)), "expanded/row")
				}
			})
		}
	}
}
