package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// pbmLambdas are the trade-off values the equivalence tests sweep.
var pbmLambdas = []float64{0, 0.3, 0.6}

// pbmDiff runs PBM and referencePBM on every decision of a task and records
// the first decision whose forward lists differ. The engine follows PBM.
type pbmDiff struct {
	got       *PBM
	want      *referencePBM
	decisions int
	mismatch  error
	// maxCands is the largest candidate set PBM searched.
	maxCands int
}

func (h *pbmDiff) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return h.compare(v, pkt, h.want.Start(v, pkt), h.got.Start(v, pkt))
}

func (h *pbmDiff) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return h.compare(v, pkt, h.want.Decide(v, pkt), h.got.Decide(v, pkt))
}

func (h *pbmDiff) compare(v view.NodeView, pkt *sim.Packet, want, got []sim.Forward) []sim.Forward {
	h.decisions++
	h.maxCands = max(h.maxCands, len(v.Scratch().PBM.Cands))
	if err := sameForwards(got, want); err != nil && h.mismatch == nil {
		h.mismatch = fmt.Errorf("decision %d at node %d (dests %v, perimeter %v): %w",
			h.decisions, v.Self(), pkt.Dests, pkt.Perimeter, err)
	}
	return got
}

// sameForwards reports the first difference between two forward lists:
// length, then each forward's next hop and packet.
func sameForwards(got, want []sim.Forward) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d forwards, reference %d: %s vs %s", len(got), len(want), fwdString(got), fwdString(want))
	}
	for i := range got {
		if got[i].To != want[i].To || !reflect.DeepEqual(got[i].Header, want[i].Header) {
			return fmt.Errorf("forward %d: %s, reference %s", i, fwdString(got), fwdString(want))
		}
	}
	return nil
}

func fwdString(fwds []sim.Forward) string {
	s := "["
	for _, f := range fwds {
		s += fmt.Sprintf(" %d:%v", f.To, f.Dests)
	}
	return s + " ]"
}

// pbmDeployment draws one of three deployments on a 1000 m square with a
// 150 m radio: uniform (kind 0), uniform around a central void (kind 1),
// or dense (kind 2), where candidate sets above pbmExactLimit are common.
func pbmDeployment(t testing.TB, r *rand.Rand, kind, size int) (*network.Network, *planar.Graph) {
	t.Helper()
	const side = 1000.0
	var nodes []network.Node
	switch kind % 3 {
	case 0:
		nodes = network.DeployUniform(60+size%340, side, side, r)
	case 1:
		nodes = network.DeployUniformWithVoid(60+size%340, side, side, geom.Pt(side/2, side/2), side/4, r)
	default:
		nodes = network.DeployUniform(900+size%600, side, side, r)
	}
	nw, err := network.New(nodes, side, side, 150)
	if err != nil {
		t.Fatal(err)
	}
	return nw, planar.Planarize(nw, planar.Gabriel)
}

// pbmTask draws a task of k destinations on nw: random nodes, or on a
// fan (odd k on dense deployments) a source at the centre and the nodes
// nearest k points on a 450 m circle around it, which gives the source
// many distinct closest neighbors.
func pbmTask(nw *network.Network, r *rand.Rand, dense bool, k int) (src int, dests []int) {
	if !dense || k%2 == 0 {
		return pickTask(r, nw.Len(), min(k, nw.Len()-1))
	}
	src = nw.ClosestNode(geom.Pt(500, 500))
	for i := 0; i < k; i++ {
		a := 2 * math.Pi * float64(i) / float64(k)
		d := nw.ClosestNode(geom.Pt(500+450*math.Cos(a), 500+450*math.Sin(a)))
		if d != src && !slices.Contains(dests, d) {
			dests = append(dests, d)
		}
	}
	return src, dests
}

// samePBMTask runs the task under every λ and reports the first decision
// where PBM and the reference differ, and the largest candidate set
// searched.
func samePBMTask(nw *network.Network, pg *planar.Graph, src int, dests []int) (maxCands int, err error) {
	for _, lambda := range pbmLambdas {
		h := &pbmDiff{got: NewPBM(lambda), want: &referencePBM{lambda: lambda}}
		en := sim.NewEngine(nw, sim.DefaultRadioParams(), 200)
		en.SetViews(view.NewOracle(nw, pg))
		en.RunTask(h, src, dests)
		if h.mismatch != nil {
			return 0, fmt.Errorf("λ=%v, source %d, destinations %v: %w", lambda, src, dests, h.mismatch)
		}
		if h.decisions == 0 {
			return 0, fmt.Errorf("λ=%v: no decision made", lambda)
		}
		maxCands = max(maxCands, h.maxCands)
	}
	return maxCands, nil
}

// TestPBMMatchesReference is the equivalence oracle of the table-driven
// PBM: on uniform, void and dense deployments, every decision of every task
// (greedy, void split and perimeter recovery alike) must return the
// reference's forward list exactly, at λ 0, 0.3 and 0.6. Direct decisions
// on lattice deployments with header locations on lattice points, where
// equal distances and so the tie rules are common, must match too.
func TestPBMMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	greedy := 0
	for trial := 0; trial < 24; trial++ {
		nw, pg := pbmDeployment(t, r, trial, r.Intn(1000))
		src, dests := pbmTask(nw, r, trial%3 == 2, 2+r.Intn(38))
		k, err := samePBMTask(nw, pg, src, dests)
		if err != nil {
			t.Fatalf("trial %d (kind %d, %d nodes): %v", trial, trial%3, nw.Len(), err)
		}
		if k > pbmExactLimit {
			greedy++
		}
	}
	if greedy == 0 {
		t.Fatalf("no task searched more than %d candidates: the greedy path went untested", pbmExactLimit)
	}

	for trial := 0; trial < 300; trial++ {
		cols := 4 + r.Intn(12)
		nw, err := network.New(network.DeployGrid(cols, cols, 40), float64(cols)*40, float64(cols)*40, 40*(1+r.Float64()*2))
		if err != nil {
			t.Fatal(err)
		}
		o := view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
		self := r.Intn(nw.Len())
		pkt := &sim.Packet{Header: sim.Header{Anchor: -1}}
		for len(pkt.Dests) < 1+r.Intn(20) {
			d := r.Intn(nw.Len())
			if d == self || slices.Contains(pkt.Dests, d) {
				continue
			}
			pkt.Dests = append(pkt.Dests, d)
			loc := nw.Pos(d)
			if r.Intn(3) == 0 {
				loc = geom.Pt(float64(r.Intn(4*cols))*10, float64(r.Intn(4*cols))*10)
			}
			pkt.Locs = append(pkt.Locs, loc)
		}
		lambda := pbmLambdas[trial%3]
		s := new(view.Scratch)
		want := (&referencePBM{lambda: lambda}).Start(o.At(self, s), pkt)
		got := NewPBM(lambda).Start(o.At(self, s), pkt)
		if err := sameForwards(got, want); err != nil {
			t.Fatalf("lattice trial %d (λ=%v, node %d, dests %v, locs %v): %v", trial, lambda, self, pkt.Dests, pkt.Locs, err)
		}
	}
}

// TestPBMMatchesReferenceEdgeCases pins the decisions at the edges of the
// subset search against the reference: a header whose every destination is
// a void, one whose destinations all share one closest neighbor, one with a
// handful of candidates, and one with more candidates than pbmExactLimit,
// which takes the greedy forward selection. Besides the swept λ, λ = 1
// makes f depend on |S| alone, so every subset of one size ties exactly
// and the strict < rules decide.
func TestPBMMatchesReferenceEdgeCases(t *testing.T) {
	nw, pg := pbmDeployment(t, rand.New(rand.NewSource(5)), 2, 300)
	o := view.NewOracle(nw, pg)
	centre := geom.Pt(500, 500)
	self := nw.ClosestNode(centre)
	at := nw.Pos(self)

	fan := func(n int, radius, spread float64) *sim.Packet {
		pkt := &sim.Packet{Header: sim.Header{Anchor: -1}}
		for i := 0; i < n; i++ {
			a := spread * float64(i) / float64(n)
			pkt.Dests = append(pkt.Dests, 10000+i)
			pkt.Locs = append(pkt.Locs, geom.Pt(at.X+radius*math.Cos(a), at.Y+radius*math.Sin(a)))
		}
		return pkt
	}
	voids := &sim.Packet{Header: sim.Header{Anchor: -1}}
	for i := 0; i < 5; i++ {
		voids.Dests = append(voids.Dests, 10000+i)
		voids.Locs = append(voids.Locs, at) // no neighbor is strictly closer
	}
	for _, tc := range []struct {
		name  string
		pkt   *sim.Packet
		cands func(int) bool
	}{
		{"all-void", voids, func(k int) bool { return k == 0 }},
		{"single-candidate", fan(6, 450, 0.01), func(k int) bool { return k == 1 }},
		{"few-candidates", fan(8, 450, 2*math.Pi), func(k int) bool { return k > 1 && k <= pbmExactLimit }},
		{"greedy", fan(72, 450, 2*math.Pi), func(k int) bool { return k > pbmExactLimit }},
	} {
		for _, lambda := range append(slices.Clone(pbmLambdas), 1) {
			s := new(view.Scratch)
			want := (&referencePBM{lambda: lambda}).Start(o.At(self, s), tc.pkt)
			got := NewPBM(lambda).Start(o.At(self, s), tc.pkt)
			if k := len(s.PBM.Cands); !tc.cands(k) {
				t.Fatalf("%s: %d candidates, wrong shape for this case", tc.name, k)
			}
			if err := sameForwards(got, want); err != nil {
				t.Fatalf("%s, λ=%v: %v", tc.name, lambda, err)
			}
		}
	}
}

// FuzzPBMMatchesReference compares PBM with the reference decision by
// decision on fuzzer-chosen deployments and tasks.
func FuzzPBMMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(200), uint8(8))
	f.Add(int64(2), uint8(1), uint16(300), uint8(20))
	f.Add(int64(3), uint8(2), uint16(100), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, size uint16, k uint8) {
		r := rand.New(rand.NewSource(seed))
		nw, pg := pbmDeployment(t, r, int(kind), int(size))
		src, dests := pbmTask(nw, r, kind%3 == 2, 1+int(k)%40)
		if _, err := samePBMTask(nw, pg, src, dests); err != nil {
			t.Fatalf("kind %d, %d nodes: %v", kind%3, nw.Len(), err)
		}
	})
}
