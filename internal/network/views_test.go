package network

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gmp/internal/geom"
)

// TestNoiseKeepsReportedMean pins that noise perturbs what a view reports,
// not the true positions: σ = 0 noise over a stale view keeps the stale
// position.
func TestNoiseKeepsReportedMean(t *testing.T) {
	nw := mustNetwork(t, FromPoints([]geom.Point{geom.Pt(10, 10), geom.Pt(50, 10)}), 100, 100, 60)
	stale := nw.WithReportedPositions(map[int]geom.Point{1: geom.Pt(50, 90)})
	if got := stale.WithPositionNoise(0, rand.New(rand.NewSource(1))).Pos(1); got != geom.Pt(50, 90) {
		t.Fatalf("σ = 0 noise over a stale view reports %v, want the stale (50, 90)", got)
	}
}

// viewOp is one step of a view chain: failures, reported positions or
// position noise.
type viewOp struct {
	kind      int // 0 WithFailures, 1 WithReportedPositions, 2 WithPositionNoise
	failed    []int
	overrides map[int]geom.Point
	sigma     float64
	seed      int64
}

func (op viewOp) apply(nw *Network) *Network {
	switch op.kind {
	case 0:
		return nw.WithFailures(op.failed)
	case 1:
		return nw.WithReportedPositions(op.overrides)
	default:
		return nw.WithPositionNoise(op.sigma, rand.New(rand.NewSource(op.seed)))
	}
}

// viewModel is what a chain of views should report, kept without the
// package's view code: the dead radios and the reported positions.
type viewModel struct {
	down  []bool
	pos   []geom.Point
	truth bool // no position op applied
}

func (m viewModel) apply(op viewOp) viewModel {
	out := viewModel{down: slices.Clone(m.down), pos: slices.Clone(m.pos), truth: m.truth}
	switch op.kind {
	case 0:
		for _, id := range op.failed {
			if id >= 0 && id < len(out.down) {
				out.down[id] = true
			}
		}
	case 1:
		for id, p := range op.overrides {
			if id >= 0 && id < len(out.pos) {
				out.pos[id] = p
			}
		}
		out.truth = false
	default:
		r := rand.New(rand.NewSource(op.seed))
		for i, p := range m.pos {
			out.pos[i] = geom.Pt(p.X+r.NormFloat64()*op.sigma, p.Y+r.NormFloat64()*op.sigma)
		}
		out.truth = false
	}
	return out
}

// viewObs is everything a view answers, on every node and pair.
type viewObs struct {
	Pos       []geom.Point
	Alive     []bool
	InRange   [][]bool
	Neighbors [][]int32
	Tiles     int
	Tile      []int
	Component []int
	W         [][]uint64 // Graph().W, bit for bit
	True      bool       // ReportsTruePositions
}

func observe(v *Network) viewObs {
	n := v.Len()
	o := viewObs{Tiles: v.Tiles(), True: v.ReportsTruePositions()}
	g := v.Graph()
	for a := 0; a < n; a++ {
		o.Pos = append(o.Pos, v.Pos(a))
		o.Alive = append(o.Alive, v.Alive(a))
		row := make([]bool, n)
		for b := range row {
			row[b] = v.InRange(a, b)
		}
		o.InRange = append(o.InRange, row)
		// A row with no links may be nil or empty; both are the empty set.
		o.Neighbors = append(o.Neighbors, append([]int32{}, v.Neighbors(a)...))
		o.Tile = append(o.Tile, v.Tile(a))
		o.Component = append(o.Component, v.Component(a))
		w := []uint64{}
		for _, x := range g.W[g.Off[a]:g.Off[a+1]] {
			w = append(w, math.Float64bits(x))
		}
		o.W = append(o.W, w)
	}
	return o
}

// diffObs names the first answer in which two views differ, or "".
func diffObs(a, b viewObs) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Sprintf("%s: %v != %v", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return ""
}

// composeDeployment draws a small network from r: up to 40 nodes, some
// coincident, some on cell borders, some outside the region.
func composeDeployment(r *rand.Rand) *Network {
	n := 2 + r.Intn(39)
	w, h, rng := 100+r.Float64()*500, 100+r.Float64()*500, 30+r.Float64()*150
	pts := make([]geom.Point, n)
	for i := range pts {
		switch c := r.Intn(8); {
		case c < 2 && i > 0:
			pts[i] = pts[r.Intn(i)]
		case c == 2:
			pts[i] = geom.Pt(float64(r.Intn(5))*rng, float64(r.Intn(5))*rng)
		case c == 3:
			pts[i] = geom.Pt(r.Float64()*(w+100)-50, r.Float64()*(h+100)-50)
		default:
			pts[i] = geom.Pt(r.Float64()*w, r.Float64()*h)
		}
	}
	nw, err := New(FromPoints(pts), w, h, rng)
	if err != nil {
		panic(err) // every drawn input is valid
	}
	return nw
}

// randomIDs draws up to 6 IDs, some outside [0, n).
func randomIDs(r *rand.Rand, n int) []int {
	ids := make([]int, r.Intn(7))
	for i := range ids {
		ids[i] = r.Intn(n+4) - 2
	}
	return ids
}

func randomOp(r *rand.Rand, n int) viewOp {
	op := viewOp{kind: r.Intn(3)}
	switch op.kind {
	case 0:
		op.failed = randomIDs(r, n)
	case 1:
		op.overrides = map[int]geom.Point{}
		for _, id := range randomIDs(r, n) {
			op.overrides[id] = geom.Pt(r.Float64()*600, r.Float64()*600)
		}
	default:
		op.sigma = []float64{0, 1, 10, 50}[r.Intn(4)]
		op.seed = r.Int63()
	}
	return op
}

// checkModel compares view v against the brute-force answers of model m
// over base's true positions.
func checkModel(base, v *Network, m viewModel) error {
	n, r2 := base.Len(), base.Range()*base.Range()
	hears := func(a, b int) bool {
		return !m.down[a] && !m.down[b] && base.TruePos(a).Dist2(base.TruePos(b)) <= r2
	}
	if v.ReportsTruePositions() != m.truth {
		return fmt.Errorf("ReportsTruePositions = %v, want %v", v.ReportsTruePositions(), m.truth)
	}
	if v.Tiles() != base.Tiles() {
		return fmt.Errorf("%d tiles, base %d", v.Tiles(), base.Tiles())
	}
	g := v.Graph()
	for a := 0; a < n; a++ {
		if v.Pos(a) != m.pos[a] || v.Alive(a) == m.down[a] || v.Tile(a) != base.Tile(a) || v.TruePos(a) != base.TruePos(a) {
			return fmt.Errorf("node %d: Pos %v Alive %v Tile %d, want %v %v %d", a, v.Pos(a), v.Alive(a), v.Tile(a), m.pos[a], !m.down[a], base.Tile(a))
		}
		var want []int32
		for b := 0; b < n; b++ {
			if v.InRange(a, b) != hears(a, b) {
				return fmt.Errorf("InRange(%d, %d) = %v", a, b, v.InRange(a, b))
			}
			if b != a && hears(a, b) {
				want = append(want, int32(b))
			}
		}
		if !slices.Equal(v.Neighbors(a), want) || !slices.Equal(g.Neighbors(a), want) {
			return fmt.Errorf("Neighbors(%d) = %v, want %v", a, v.Neighbors(a), want)
		}
		w := g.W[g.Off[a]:g.Off[a+1]]
		for i, b := range want {
			if math.Float64bits(w[i]) != math.Float64bits(m.pos[a].Dist(m.pos[b])) {
				return fmt.Errorf("W[%d][%d] = %v, want %v", a, i, w[i], m.pos[a].Dist(m.pos[b]))
			}
		}
	}
	// Components: equal labels exactly when a model BFS links the nodes.
	for src := 0; src < n; src++ {
		seen := make([]bool, n)
		seen[src] = true
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			for b := 0; b < n; b++ {
				if !seen[b] && b != queue[0] && hears(queue[0], b) {
					seen[b] = true
					queue = append(queue, b)
				}
			}
		}
		for b, s := range seen {
			if (v.Component(b) == v.Component(src)) != s {
				return fmt.Errorf("Component(%d) == Component(%d) is %v, reachable %v", b, src, !s, s)
			}
		}
	}
	return nil
}

// viewsCompose draws a deployment and a chain of up to `steps` views from
// seed, checks every prefix of the chain against the brute-force model,
// and checks the composition laws on the chain's last view.
func viewsCompose(seed int64, steps uint8) error {
	r := rand.New(rand.NewSource(seed))
	base := composeDeployment(r)
	n := base.Len()
	m := viewModel{down: make([]bool, n), pos: slices.Clone(base.phys), truth: true}
	v := base
	for i := 0; i < int(steps%8); i++ {
		op := randomOp(r, n)
		v, m = op.apply(v), m.apply(op)
		if err := checkModel(base, v, m); err != nil {
			return fmt.Errorf("step %d (op %d): %w", i, op.kind, err)
		}
	}

	same := func(law string, a, b *Network) error {
		if d := diffObs(observe(a), observe(b)); d != "" {
			return fmt.Errorf("%s: %s", law, d)
		}
		return nil
	}
	fa, fb := randomIDs(r, n), randomIDs(r, n)
	union := append(slices.Clone(fa), fb...)
	if err := same("F(a)∘F(b) = F(b)∘F(a)", v.WithFailures(fb).WithFailures(fa), v.WithFailures(fa).WithFailures(fb)); err != nil {
		return err
	}
	if err := same("F(a)∘F(b) = F(a∪b)", v.WithFailures(fb).WithFailures(fa), v.WithFailures(union)); err != nil {
		return err
	}

	x := viewOp{kind: 1, overrides: map[int]geom.Point{}}
	y := viewOp{kind: 1, overrides: map[int]geom.Point{}}
	both := map[int]geom.Point{}
	xIDs := randomIDs(r, n)
	for _, id := range xIDs {
		x.overrides[id] = geom.Pt(r.Float64()*600, r.Float64()*600)
		both[id] = x.overrides[id]
	}
	for _, id := range append(randomIDs(r, n), xIDs[:len(xIDs)/2]...) {
		y.overrides[id] = geom.Pt(r.Float64()*600, r.Float64()*600)
		both[id] = y.overrides[id] // the later writer wins
	}
	if err := same("R(y)∘R(x) = R(x then y)", y.apply(x.apply(v)), v.WithReportedPositions(both)); err != nil {
		return err
	}

	zero := v.WithPositionNoise(0, rand.New(rand.NewSource(seed)))
	if zero.ReportsTruePositions() {
		return fmt.Errorf("σ = 0 noise: ReportsTruePositions is true")
	}
	oz, ov := observe(zero), observe(v)
	oz.True = ov.True
	if d := diffObs(oz, ov); d != "" {
		return fmt.Errorf("σ = 0 noise changes the view: %s", d)
	}

	sigma, ns := []float64{0, 1, 10, 50}[r.Intn(4)], r.Int63()
	noise := func(w *Network) *Network { return w.WithPositionNoise(sigma, rand.New(rand.NewSource(ns))) }
	if err := same("N∘F(a) = F(a)∘N", noise(v.WithFailures(fa)), noise(v).WithFailures(fa)); err != nil {
		return err
	}
	return same("R(x)∘F(a) = F(a)∘R(x)", x.apply(v.WithFailures(fa)), x.apply(v).WithFailures(fa))
}

// TestViewsCompose checks random chains of WithFailures,
// WithPositionNoise and WithReportedPositions over small random
// deployments, with coincident nodes and out-of-range IDs, against a
// brute-force model and the composition laws of views.go.
func TestViewsCompose(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		if err := viewsCompose(seed, uint8(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzViewsCompose runs the same checks on fuzzer-chosen seeds and chain
// lengths.
func FuzzViewsCompose(f *testing.F) {
	for steps := uint8(0); steps < 8; steps++ {
		f.Add(int64(steps), steps)
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		if err := viewsCompose(seed, steps); err != nil {
			t.Fatal(err)
		}
	})
}
