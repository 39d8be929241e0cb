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
		g := steiner.Graph{N: v.Len(), Off: make([]int32, v.Len()+1)}
		for id := range v.Len() {
			for _, n := range v.Neighbors(id) {
				g.Nbr = append(g.Nbr, n)
				g.W = append(g.W, v.Dist(id, int(n)))
			}
			g.Off[id+1] = int32(len(g.Nbr))
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
			fwds := NewSMT(v).Start(oracle.At(src, new(view.Scratch)), &sim.Packet{Header: sim.Header{Dests: dests, Locs: locs, Anchor: -1}})
			var got *sim.Route
			served := 0
			for _, f := range fwds {
				if f.To != sim.DropCopy {
					got = f.Route
					served += len(f.Dests)
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
			if want := rootTree(edges, src, new(view.SMTArena)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: SMT tree %v, KMB under the view's Dist %v", vw.name, trial, got, want)
			}
		}
	}
}

// TestSMTForwardsMatchSubtreeWalk checks SMT's relay rule against the map
// walk it replaced: at a tree vertex, one copy per child, in ascending
// child order, carrying exactly the aboard destinations found by walking
// that child's subtree, sorted. Headers mix tree terminals, relays (as a
// join spliced aboard mid-route can be) and vertices outside the tree.
func TestSMTForwardsMatchSubtreeWalk(t *testing.T) {
	bed := denseBed(t, 31, 400)
	o := view.NewOracle(bed.nw, bed.pg)
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		src, dests := pickTask(r, bed.nw.Len(), 2+r.Intn(20))
		edges, err := steiner.KMBWeighted(bed.nw.Graph(), append([]int{src}, dests...))
		if err != nil {
			t.Fatal(err)
		}
		children := mapTree(edges, src)
		rt := rootTree(edges, src, new(view.SMTArena))
		nodes := rt.Node
		at := nodes[r.Intn(len(nodes))]
		var aboard []int
		for _, v := range append(slices.Clone(nodes), r.Intn(bed.nw.Len()), r.Intn(bed.nw.Len())) {
			if v != at && r.Intn(2) == 0 && !slices.Contains(aboard, v) {
				aboard = append(aboard, v)
			}
		}
		if len(aboard) == 0 {
			continue
		}
		pkt := &sim.Packet{Header: sim.Header{Dests: aboard, Route: rt, Anchor: -1}}
		for _, d := range aboard {
			pkt.Locs = append(pkt.Locs, bed.nw.Pos(d))
		}
		got := forwardChildren(o.At(at, new(view.Scratch)), &pkt.Header)
		var want [][]int
		var wantTo []int
		for _, c := range children[at] {
			var sub []int
			var walk func(v int)
			walk = func(v int) {
				if slices.Contains(aboard, v) {
					sub = append(sub, v)
				}
				for _, w := range children[v] {
					walk(w)
				}
			}
			walk(c)
			if len(sub) > 0 {
				slices.Sort(sub)
				want, wantTo = append(want, sub), append(wantTo, c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d at %d: %d forwards, want %d (%v to %v)", trial, at, len(got), len(want), want, wantTo)
		}
		for i, f := range got {
			if f.To != wantTo[i] || !slices.Equal(f.Dests, want[i]) {
				t.Fatalf("trial %d at %d: forward %d is %v to %d, want %v to %d", trial, at, i, f.Dests, f.To, want[i], wantTo[i])
			}
		}
	}
}

// mapTree is the children map SMT's packets carried before the preorder
// Route: a breadth-first orientation of the edges at root, children sorted.
func mapTree(edges [][2]int, root int) map[int][]int {
	adj := make(map[int][]int)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	children := make(map[int][]int, len(adj))
	visited := map[int]bool{root: true}
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		kids := adj[v]
		slices.Sort(kids)
		for _, w := range kids {
			if !visited[w] {
				visited[w] = true
				children[v] = append(children[v], w)
				queue = append(queue, w)
			}
		}
	}
	return children
}
