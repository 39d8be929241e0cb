package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/steiner"
)

// cutsView builds one network view from seed for the KMB differential: a
// uniform field or a 10 m lattice full of exact ties and coincident nodes,
// seen plain, with position noise, with stale reported positions, with
// failures, or with noise and failures.
func cutsView(t testing.TB, seed int64, kind, size uint8) *Network {
	r := rand.New(rand.NewSource(seed))
	n := 20 + int(size)%300
	var nodes []Node
	if kind%2 == 0 {
		nodes = DeployUniform(n, 600, 600, r)
	} else {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(r.Intn(30))*10, float64(r.Intn(30))*10)
		}
		nodes = FromPoints(pts)
	}
	nw, err := New(nodes, 600, 600, 40+r.Float64()*80)
	if err != nil {
		t.Fatal(err)
	}
	var failed []int
	for id := 0; id < n; id++ {
		if r.Intn(8) == 0 {
			failed = append(failed, id)
		}
	}
	switch (kind / 2) % 5 {
	case 1:
		nw = nw.WithPositionNoise(1+r.Float64()*20, r)
	case 2:
		stale := map[int]geom.Point{}
		for id := 0; id < n; id += 1 + r.Intn(4) {
			stale[id] = geom.Pt(r.Float64()*600, r.Float64()*600)
		}
		nw = nw.WithReportedPositions(stale)
	case 3:
		nw = nw.WithFailures(failed)
	case 4:
		nw = nw.WithPositionNoise(1+r.Float64()*20, r).WithFailures(failed)
	}
	return nw
}

// sameCutKMB runs KMB on nw.Graph(), whose positions turn the straight-line
// cuts on, and on the same graph without positions, for a few terminal
// sets drawn from r; it reports the first difference in edges or error.
// Most terminals share the first one's component, so that most sets span a
// tree; the rest may be unreachable.
func sameCutKMB(nw *Network, r *rand.Rand, k int) error {
	g := nw.Graph()
	uncut := g
	uncut.Pos = nil
	var cut, plain steiner.KMBArena
	for trial := 0; trial < 4; trial++ {
		terms := []int{r.Intn(nw.Len())}
		for len(terms) < 2+k%24 {
			if t := r.Intn(nw.Len()); r.Intn(16) == 0 || nw.Component(t) == nw.Component(terms[0]) {
				terms = append(terms, t)
			}
		}
		got, gotErr := cut.KMBWeighted(g, terms)
		want, wantErr := plain.KMBWeighted(uncut, terms)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			return fmt.Errorf("terminals %v: cut %v, %v; uncut %v, %v", terms, got, gotErr, want, wantErr)
		}
	}
	return nil
}

// TestSMTPrunedMatchesUnpruned is the network-level oracle of KMB's
// straight-line cuts: on every kind of view SMT builds trees on, KMB with
// the view's positions returns the edges and errors it returns without
// them.
func TestSMTPrunedMatchesUnpruned(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		kind, size := uint8(seed%10), uint8(seed*37)
		nw := cutsView(t, seed, kind, size)
		if err := sameCutKMB(nw, rand.New(rand.NewSource(seed)), int(seed)); err != nil {
			t.Fatalf("seed %d, view kind %d, %d nodes: %v", seed, kind, nw.Len(), err)
		}
	}
}

// FuzzSMTPrunedMatchesUnpruned runs the same oracle on fuzzer-chosen
// seeds, view kinds, sizes and terminal counts.
func FuzzSMTPrunedMatchesUnpruned(f *testing.F) {
	for kind := uint8(0); kind < 10; kind++ {
		f.Add(int64(kind), kind, uint8(200), uint8(12))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind, size, k uint8) {
		nw := cutsView(t, seed, kind, size)
		if err := sameCutKMB(nw, rand.New(rand.NewSource(seed)), int(k)); err != nil {
			t.Fatalf("view kind %d, %d nodes: %v", kind%10, nw.Len(), err)
		}
	})
}
