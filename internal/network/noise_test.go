package network

import (
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func TestWithPositionNoiseSeparatesReportedFromTrue(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	nw, err := New(DeployUniform(200, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	noisy := nw.WithPositionNoise(20, rand.New(rand.NewSource(1)))

	// Physics unchanged: adjacency identical, InRange driven by true
	// geometry.
	for id := 0; id < nw.Len(); id++ {
		a, b := nw.Neighbors(id), noisy.Neighbors(id)
		if len(a) != len(b) {
			t.Fatalf("adjacency changed for node %d", id)
		}
		if !noisy.TruePos(id).Eq(nw.Pos(id)) {
			t.Fatalf("true position changed for node %d", id)
		}
	}

	// Reported positions perturbed with roughly the right magnitude.
	var sum, sum2 float64
	for id := 0; id < nw.Len(); id++ {
		d := noisy.Pos(id).Dist(noisy.TruePos(id))
		sum += d
		sum2 += d * d
	}
	mean := sum / float64(nw.Len())
	// For isotropic Gaussian noise the expected offset is sigma·sqrt(π/2)
	// ≈ 1.25σ... the Rayleigh mean is σ·sqrt(π/2) ≈ 25.07 for σ=20.
	want := 20 * math.Sqrt(math.Pi/2)
	if mean < want*0.8 || mean > want*1.2 {
		t.Fatalf("mean offset %v, want ≈%v", mean, want)
	}
}

func TestWithPositionNoiseZeroSigma(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	nw, err := New(DeployUniform(50, 500, 500, r), 500, 500, 150)
	if err != nil {
		t.Fatal(err)
	}
	noisy := nw.WithPositionNoise(0, rand.New(rand.NewSource(2)))
	for id := 0; id < nw.Len(); id++ {
		if !noisy.Pos(id).Eq(nw.Pos(id)) {
			t.Fatalf("sigma=0 must not move node %d", id)
		}
	}
}

func TestWithPositionNoiseOriginalUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	nw, err := New(DeployUniform(50, 500, 500, r), 500, 500, 150)
	if err != nil {
		t.Fatal(err)
	}
	before := nw.Pos(7)
	_ = nw.WithPositionNoise(30, rand.New(rand.NewSource(3)))
	if !nw.Pos(7).Eq(before) {
		t.Fatal("original positions mutated")
	}
}

func TestNoiseComposesWithFailures(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	nw, err := New(DeployUniform(100, 500, 500, r), 500, 500, 150)
	if err != nil {
		t.Fatal(err)
	}
	view := nw.WithFailures([]int{5}).WithPositionNoise(10, rand.New(rand.NewSource(4)))
	if view.Alive(5) {
		t.Fatal("failure lost through noise overlay")
	}
	if view.Pos(6).Eq(nw.Pos(6)) {
		t.Fatal("noise lost through composition")
	}
	if !view.TruePos(6).Eq(nw.Pos(6)) {
		t.Fatal("true position lost")
	}
}

// TestFailuresKeepNoise is the mirror of TestNoiseComposesWithFailures:
// failing nodes on a noisy view keeps every node's reported position.
func TestFailuresKeepNoise(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	nw, err := New(DeployUniform(100, 500, 500, r), 500, 500, 150)
	if err != nil {
		t.Fatal(err)
	}
	noisy := nw.WithPositionNoise(10, rand.New(rand.NewSource(4)))
	view := noisy.WithFailures([]int{5})
	if view.Alive(5) || !view.Alive(6) {
		t.Fatal("failure set wrong")
	}
	if view.ReportsTruePositions() {
		t.Fatal("noise overlay lost through failures")
	}
	for id := 0; id < nw.Len(); id++ {
		if view.Pos(id) != noisy.Pos(id) {
			t.Fatalf("node %d reports %v, noisy view %v", id, view.Pos(id), noisy.Pos(id))
		}
		if view.TruePos(id) != nw.Pos(id) {
			t.Fatalf("node %d true position %v, want %v", id, view.TruePos(id), nw.Pos(id))
		}
	}
}

// TestReportsTruePositions pins the property planarization selects its
// rule by: only a reported-position overlay clears it, and it survives
// failures on either side of the overlay.
func TestReportsTruePositions(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	nw, err := New(DeployUniform(50, 500, 500, r), 500, 500, 150)
	if err != nil {
		t.Fatal(err)
	}
	noisy := nw.WithPositionNoise(5, rand.New(rand.NewSource(1)))
	for _, c := range []struct {
		name string
		view *Network
		want bool
	}{
		{"base", nw, true},
		{"failures", nw.WithFailures([]int{1, 2}), true},
		{"noise", noisy, false},
		{"noise then failures", noisy.WithFailures([]int{3}), false},
		{"failures then noise", nw.WithFailures([]int{3}).WithPositionNoise(5, rand.New(rand.NewSource(2))), false},
		{"reported", nw.WithReportedPositions(map[int]geom.Point{4: geom.Pt(1, 1)}), false},
	} {
		if got := c.view.ReportsTruePositions(); got != c.want {
			t.Errorf("%s: ReportsTruePositions = %v, want %v", c.name, got, c.want)
		}
	}
}
