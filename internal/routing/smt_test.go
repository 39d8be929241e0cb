package routing

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// TestSMTTreeFollowsView runs SMT's source on a network and then on a
// position-noise, a stale-position and a failure view of it, and requires
// each embedded tree to be KMB's under that view's own Dist. The test
// computes the lengths itself instead of reading the view's tables, so a
// view that inherited its parent's lengths or components fails here.
func TestSMTTreeFollowsView(t *testing.T) {
	nw := denseBed(t, 71, 600).nw
	r := rand.New(rand.NewSource(72))
	stale := map[int]geom.Point{}
	for id := 0; id < nw.Len(); id += 3 {
		stale[id] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	var failed []int
	for id := 0; id < nw.Len(); id += 9 {
		failed = append(failed, id)
	}
	views := []struct {
		name string
		nw   *network.Network
	}{
		{"parent", nw}, // first, so the parent's tables exist before any view
		{"noise", nw.WithPositionNoise(40, rand.New(rand.NewSource(73)))},
		{"reported", nw.WithReportedPositions(stale)},
		{"failures", nw.WithFailures(failed)},
	}
	for _, vw := range views {
		v := vw.nw
		oracle := view.NewOracle(v, planar.Planarize(v, planar.Gabriel))
		g := steiner.Graph{N: v.Len(), Adj: make([][]int, v.Len()), W: make([][]float64, v.Len())}
		for id := range g.Adj {
			g.Adj[id] = v.Neighbors(id)
			for _, n := range g.Adj[id] {
				g.W[id] = append(g.W[id], v.Dist(id, n))
			}
		}
		for trial := 0; trial < 10; trial++ {
			src := 1 + 9*r.Intn(v.Len()/9) // never a failed node
			dests := make([]int, 0, 12)
			locs := make([]geom.Point, 0, 12)
			for len(dests) < cap(dests) {
				if d := r.Intn(v.Len()); d != src && !slices.Contains(dests, d) {
					dests = append(dests, d)
					locs = append(locs, v.Pos(d))
				}
			}
			var reachable []int
			for _, d := range dests {
				if v.HopDistances(src)[d] >= 0 {
					reachable = append(reachable, d)
				}
			}
			fwds := NewSMT(v).Start(oracle.At(src, new(view.Scratch)), &sim.Packet{Dests: dests, Locs: locs, Anchor: -1})
			var got map[int][]int
			served := 0
			for _, f := range fwds {
				if f.To != sim.DropCopy {
					got = f.Pkt.Route
					served += len(f.Pkt.Dests)
				}
			}
			if served != len(reachable) {
				t.Fatalf("%s trial %d: SMT forwards %d destinations, %d reachable", vw.name, trial, served, len(reachable))
			}
			if len(reachable) == 0 {
				continue
			}
			edges, err := steiner.KMBWeighted(g, append([]int{src}, reachable...))
			if err != nil {
				t.Fatal(err)
			}
			if want := rootTree(edges, src); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: SMT tree %v, KMB under the view's Dist %v", vw.name, trial, got, want)
			}
		}
	}
}
