package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/view"
)

// tileRecorder is splitHandler noting the tile of every node it decides at.
type tileRecorder struct {
	splitHandler
	nw    *network.Network
	tiles map[int]bool
}

func (h tileRecorder) Start(v view.NodeView, pkt *Packet) []Forward {
	h.tiles[h.nw.Tile(v.Self())] = true
	return h.splitHandler.Start(v, pkt)
}

func (h tileRecorder) Decide(v view.NodeView, pkt *Packet) []Forward {
	h.tiles[h.nw.Tile(v.Self())] = true
	return h.splitHandler.Decide(v, pkt)
}

// TestDroppedEngineIsCollectable runs a script on an engine over an oracle
// and over a live provider, drops the engine and keeps the provider: every
// lane of the engine must then be collectable. A provider keeps the arena
// it was last lent at each node; were that arena part of its lane, the
// provider would pin every lane that decided anything, with its sessions,
// queues and maps.
func TestDroppedEngineIsCollectable(t *testing.T) {
	nw, err := network.New(network.DeployUniform(400, 1200, 1200, rand.New(rand.NewSource(31))), 1200, 1200, 150)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tiles() < 2 {
		t.Fatalf("want a multi-tile network, got %d tiles", nw.Tiles())
	}
	pos := make([]geom.Point, nw.Len())
	tables := make([][]view.Neighbor, nw.Len())
	for id := range tables {
		pos[id] = nw.Pos(id)
		for _, n := range nw.Neighbors(id) {
			tables[id] = append(tables[id], view.Neighbor{ID: int(n), Pos: nw.Pos(int(n))})
		}
	}
	providers := []struct {
		name  string
		views view.Provider
	}{
		{"oracle", view.NewOracle(nw, nil)},
		{"live", view.NewLive(pos, tables, view.LiveConfig{RadioRange: nw.Range()})},
	}
	for _, p := range providers {
		freed, lanes, tiles := runAndDrop(nw, p.views)
		if tiles < 2 {
			t.Fatalf("%s: decisions on %d tiles; the script must reach several lanes", p.name, tiles)
		}
		// Finalizers run on their own goroutine after the cycle that finds
		// their object unreachable, so collect until every lane reports or
		// the deadline passes.
		deadline := time.After(5 * time.Second)
		for got := 0; got < lanes; {
			runtime.GC()
			select {
			case <-freed:
				got++
			case <-time.After(10 * time.Millisecond):
			case <-deadline:
				t.Fatalf("%s: %d of %d lanes outlive their engine while the provider lives", p.name, lanes-got, lanes)
			}
		}
		runtime.KeepAlive(p.views)
	}
}

// runAndDrop runs a two-session script on a fresh engine over views, sets
// a finalizer on each of the engine's lanes that reports to the returned
// channel, and returns the channel, the number of lanes and the number of
// tiles decided at. The engine is unreachable once it returns.
func runAndDrop(nw *network.Network, views view.Provider) (<-chan int, int, int) {
	h := tileRecorder{nw: nw, tiles: map[int]bool{}}
	en := NewEngine(nw, DefaultRadioParams(), 64)
	en.SetViews(views)
	en.RunScript([]Session{
		{Start: 0, Handler: h, Src: 0, Dests: []int{40, 80, 120, 160, 200, 240, 280, 320, 360}},
		{Start: 0.001, Handler: h, Src: 399, Dests: []int{10, 50, 90, 130, 170, 210, 250, 290}},
	})
	freed := make(chan int, len(en.lanes))
	for _, ln := range en.lanes {
		runtime.SetFinalizer(ln, func(ln *lane) { freed <- ln.id })
	}
	return freed, len(en.lanes), len(h.tiles)
}
