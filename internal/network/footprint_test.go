package network

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gmp/internal/testutil"
)

// TestSubstrateFootprint bounds, in bytes, what a network and a failure
// view of it keep resident on a 2·10⁴-node field at the field-sessions
// density (1000 m² per node, 150 m range): New at most 4 B per adjacency
// entry plus 64 B per node, and WithFailures at most 4 B per kept entry
// plus 8 B per node beyond its parent. Adjacency rows of 8-byte IDs retain
// about 8 B per entry.
func TestSubstrateFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow memory distorts heap accounting")
	}
	const n = 20_000
	side := math.Sqrt(n * 1000.0)
	nodes := DeployUniform(n, side, side, rand.New(rand.NewSource(17)))
	var failed []int
	for id := 0; id < n; id += 10 {
		failed = append(failed, id)
	}

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	nw, err := New(nodes, side, side, 150)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	v := nw.WithFailures(failed)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(nodes)
	runtime.KeepAlive(failed)

	entries := int64(math.Round(nw.AvgDegree() * n))
	kept := int64(math.Round(v.AvgDegree() * n))
	base := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	view := int64(m2.HeapAlloc) - int64(m1.HeapAlloc)
	runtime.KeepAlive(nw)
	runtime.KeepAlive(v)
	t.Logf("New: %d B for %d nodes, %d entries (%.2f B/entry beyond 64 B/node)",
		base, n, entries, float64(base-64*n)/float64(entries))
	t.Logf("WithFailures: %d B for %d kept entries (%.2f B/entry beyond 8 B/node)",
		view, kept, float64(view-8*n)/float64(kept))
	if base > 4*entries+64*n {
		t.Errorf("New retains %d B, bound %d B (4 B/entry + 64 B/node)", base, 4*entries+64*n)
	}
	if view > 4*kept+8*n {
		t.Errorf("WithFailures retains %d B, bound %d B (4 B/kept entry + 8 B/node)", view, 4*kept+8*n)
	}
}

// TestCheckInt32 pins the int32 limits of the CSR with counts alone: a
// field with more nodes or adjacency entries than math.MaxInt32 is refused
// with ErrBadDimensions, one at the limit is accepted.
func TestCheckInt32(t *testing.T) {
	for _, c := range []struct {
		nodes, entries int
		ok             bool
	}{
		{1, 0, true},
		{math.MaxInt32, math.MaxInt32, true},
		{math.MaxInt32 + 1, 0, false},
		{1000, math.MaxInt32 + 1, false},
		{1 << 40, 1 << 40, false},
	} {
		err := checkInt32(c.nodes, c.entries)
		if (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrBadDimensions)) {
			t.Errorf("checkInt32(%d, %d) = %v, want ok=%v or ErrBadDimensions", c.nodes, c.entries, err, c.ok)
		}
	}
}
