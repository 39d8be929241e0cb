package steiner

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"gmp/internal/geom"
)

// sameTree reports the first difference between got and want: vertex IDs,
// kinds, labels and position bits, then edge endpoints and Seqs in order.
func sameTree(got, want *Tree) error {
	gv, wv := got.Vertices(), want.Vertices()
	if len(gv) != len(wv) {
		return fmt.Errorf("%d vertices, reference has %d", len(gv), len(wv))
	}
	for i := range gv {
		g, w := gv[i], wv[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.Label != w.Label ||
			math.Float64bits(g.Pos.X) != math.Float64bits(w.Pos.X) ||
			math.Float64bits(g.Pos.Y) != math.Float64bits(w.Pos.Y) {
			return fmt.Errorf("vertex %d = %+v, reference %+v", i, g, w)
		}
	}
	ge, we := got.Edges(), want.Edges()
	if len(ge) != len(we) {
		return fmt.Errorf("%d edges, reference has %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			return fmt.Errorf("edge %d = %+v, reference %+v", i, ge[i], we[i])
		}
	}
	return nil
}

// equivOptions are the option sets the oracle compares under: basic rrSTR
// and radio-aware at two ranges.
var equivOptions = []Options{
	{},
	{RadioRange: 150, RadioAware: true},
	{RadioRange: 40, RadioAware: true},
}

// equivPoints generates k destinations around source in one of five shapes:
// uniform, a coarse grid (many equal ratios, so the (u, v) tie-break
// decides), duplicated positions, collinear points on a line through a
// random point, and sets where some destinations coincide with the source.
func equivPoints(r *rand.Rand, shape, k int, source geom.Point) []Dest {
	dests := make([]Dest, k)
	for i := range dests {
		var p geom.Point
		switch shape {
		case 0: // uniform
			p = geom.Pt(r.Float64()*1000, r.Float64()*1000)
		case 1: // grid
			p = geom.Pt(float64(100*r.Intn(11)), float64(100*r.Intn(11)))
		case 2: // duplicates
			if i > 0 && r.Intn(3) == 0 {
				p = dests[r.Intn(i)].Pos
			} else {
				p = geom.Pt(r.Float64()*400, r.Float64()*400)
			}
		case 3: // collinear
			p = geom.Pt(200+r.Float64()*600, 0).Rotate(0.3).Add(geom.Pt(0, 250))
			if r.Intn(2) == 0 {
				p = geom.Pt(float64(r.Intn(20))*50, 500) // on a line through source
			}
		default: // source-coincident
			if r.Intn(4) == 0 {
				p = source
			} else {
				p = source.Add(geom.Pt(r.Float64()*600-300, r.Float64()*600-300))
			}
		}
		dests[i] = Dest{Pos: p, Label: i}
	}
	return dests
}

// TestBuildMatchesReference is the equivalence oracle of the lazy builder:
// on 9,100 builds over K = 1..130, every shape of equivPoints and every
// option set, Builder.Build must produce exactly referenceBuild's tree. The
// builder is reused across builds, as GMP's decision arenas are. Most builds
// are small to keep the test fast; every 50th draws K from 41..130.
func TestBuildMatchesReference(t *testing.T) {
	const builds = 9100
	r := rand.New(rand.NewSource(13))
	var b Builder
	var ref refBuilder
	for i := 0; i < builds; i++ {
		k := 1 + i%40
		if i%50 == 0 {
			k = 41 + r.Intn(90)
		}
		shape := i % 5
		source := geom.Pt(500, 500)
		if r.Intn(2) == 0 {
			source = geom.Pt(r.Float64()*1000, r.Float64()*1000)
		}
		dests := equivPoints(r, shape, k, source)
		opts := equivOptions[(i/5)%len(equivOptions)]
		if err := sameTree(b.Build(source, dests, opts), ref.build(source, dests, opts)); err != nil {
			t.Fatalf("build %d (k=%d shape=%d opts=%+v): %v", i, k, shape, opts, err)
		}
	}
}

// FuzzBuildMatchesReference compares Builder.Build with referenceBuild on
// fuzzer-chosen point sets: the source and up to 130 destinations on a
// 0.25-unit lattice (coordinates from big-endian uint16 pairs), which makes
// duplicates, collinear triples and equal ratios common.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0}, uint8(0), uint8(150))
	f.Add([]byte{8, 0, 8, 0, 9, 0, 9, 0, 9, 0, 9, 0, 8, 0, 8, 0, 16, 0, 1, 0}, uint8(1), uint8(30))
	f.Add([]byte{0, 10, 0, 10, 4, 0, 0, 10, 8, 0, 0, 10, 12, 0, 0, 10, 3, 0, 3, 0}, uint8(2), uint8(80))
	f.Fuzz(func(t *testing.T, data []byte, mode, radio uint8) {
		var pts []geom.Point
		for len(data) >= 4 && len(pts) <= 131 {
			x, y := binary.BigEndian.Uint16(data), binary.BigEndian.Uint16(data[2:])
			pts = append(pts, geom.Pt(float64(x)/4, float64(y)/4))
			data = data[4:]
		}
		if len(pts) == 0 {
			t.Skip()
		}
		dests := make([]Dest, len(pts)-1)
		for i, p := range pts[1:] {
			dests[i] = Dest{Pos: p, Label: i}
		}
		opts := Options{
			RadioRange: 1 + float64(radio)*4,
			RadioAware: mode&1 != 0,
		}
		if err := sameTree(new(Builder).Build(pts[0], dests, opts), referenceBuild(pts[0], dests, opts)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPairItemSize pins the pair-queue item at 16 bytes: the queue of a
// K-destination build holds K(K-1)/2 of them.
func TestPairItemSize(t *testing.T) {
	if got := unsafe.Sizeof(pairItem{}); got != 16 {
		t.Fatalf("pairItem is %d bytes, want 16", got)
	}
	for _, c := range []struct {
		u, v  int
		exact bool
	}{{0, 1, false}, {1, 2, true}, {1<<31 - 2, 1<<31 - 1, true}} {
		it := newPairItem(0.25, c.u, c.v, c.exact)
		if u, v := it.pair(); u != c.u || v != c.v || it.exact() != c.exact {
			t.Errorf("newPairItem(%d, %d, %v) unpacks to (%d, %d, %v)", c.u, c.v, c.exact, u, v, it.exact())
		}
	}
}

// TestBuildLazyHeapBytes bounds a Builder's retained pair-queue storage in
// bytes after a K=120 radio-aware build: no more than 16 B per pair the
// build pushed.
func TestBuildLazyHeapBytes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var b Builder
	b.Build(geom.Pt(500, 500), randDests(r, 120, 1000), awareOpts())
	retained := cap(b.q) * int(unsafe.Sizeof(pairItem{}))
	if limit := 16 * b.pairs; retained > limit {
		t.Fatalf("pair queue retains %d B after pushing %d pairs, limit %d B", retained, b.pairs, limit)
	}
}

// TestBuildLazyEvaluations counts exact reduction-ratio evaluations per
// K=120 build. The eager reference evaluates every pair it pushes, and the
// lazy builder pushes the same pairs, so b.pairs is the reference's count.
// The lazy builder must evaluate under a tenth of them.
func TestBuildLazyEvaluations(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, opts := range []Options{basicOpts(), awareOpts()} {
		var b Builder
		pairs, evals := 0, 0
		const builds = 8
		for i := 0; i < builds; i++ {
			b.Build(geom.Pt(500, 500), randDests(r, 120, 1000), opts)
			pairs += b.pairs
			evals += b.evals
		}
		t.Logf("K=120 %+v: %d Steiner-point evaluations per build, reference %d", opts, evals/builds, pairs/builds)
		if 10*evals > pairs {
			t.Errorf("K=120 %+v: %d evaluations for %d pairs, want under a tenth", opts, evals, pairs)
		}
	}
}
