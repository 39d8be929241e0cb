package network

import (
	"math/rand"
	"reflect"
	"testing"

	"gmp/internal/geom"
)

// TestTilePartition verifies the tile layer is a partition: every node lives
// in exactly one tile, Tile(id) agrees with the per-tile node lists, lists
// are ascending, and the tile index is consistent with the node's grid cell
// (a tile is a TileSpan×TileSpan block of cells).
func TestTilePartition(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 120, 900} {
		nw := randomTestNet(t, r, n, 1100, 700, 130)
		seen := make(map[int]int)
		total := 0
		for ti := 0; ti < nw.Tiles(); ti++ {
			ids := nw.TileNodes(ti)
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("tile %d nodes not ascending: %v", ti, ids)
				}
				if prev, dup := seen[id]; dup {
					t.Fatalf("node %d in tiles %d and %d", id, prev, ti)
				}
				seen[id] = ti
				if nw.Tile(id) != ti {
					t.Fatalf("Tile(%d) = %d, but node listed in tile %d", id, nw.Tile(id), ti)
				}
			}
			total += len(ids)
		}
		if total != nw.Len() {
			t.Fatalf("tiles cover %d of %d nodes", total, nw.Len())
		}
		for id := 0; id < nw.Len(); id++ {
			c := nw.cellOf(nw.phys[id])
			cx, cy := c%nw.cols, c/nw.cols
			want := (cy/TileSpan)*nw.tileCols + cx/TileSpan
			if nw.Tile(id) != want {
				t.Fatalf("node %d: Tile = %d, cell (%d,%d) implies %d", id, nw.Tile(id), cx, cy, want)
			}
		}
	}
}

// TestTileBorderExactness pins the convention for nodes exactly on a tile
// border: the assignment follows the cell grid (a coordinate exactly on a
// cell edge belongs to the higher cell), so a border node is in exactly one
// tile and neighbors straddling the border still see each other through the
// ordinary adjacency.
func TestTileBorderExactness(t *testing.T) {
	const rng = 100.0
	// Cell size = rng; tile side = TileSpan*rng = 400. Place one node just
	// inside tile (0,0), one exactly on the x=400 border, one just beyond.
	nodes := []Node{
		{ID: 0, Pos: geom.Pt(399.0, 50)},
		{ID: 1, Pos: geom.Pt(400.0, 50)}, // exactly on the tile border
		{ID: 2, Pos: geom.Pt(401.0, 50)},
	}
	nw, err := New(nodes, 900, 900, rng)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tiles() < 2 {
		t.Fatalf("want ≥ 2 tiles, got %d", nw.Tiles())
	}
	if got, want := nw.Tile(0), 0; got != want {
		t.Fatalf("Tile(0) = %d, want %d", got, want)
	}
	if nw.Tile(1) != nw.Tile(2) {
		t.Fatalf("border node in tile %d, interior-right node in tile %d; exact border must round up",
			nw.Tile(1), nw.Tile(2))
	}
	if nw.Tile(1) == nw.Tile(0) {
		t.Fatal("border node landed in the left tile; must belong to the higher tile")
	}
	// The border must not affect radio adjacency: 0↔1 are 1 m apart.
	if got := nw.Neighbors(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Neighbors(0) = %v, want [1 2]", got)
	}
}

// TestTilingIndependentOfNodes verifies the tile decomposition is a pure
// function of region geometry and radio range — two deployments over the same
// region must agree on tile count and on every position→tile assignment. The
// sharded kernel's determinism argument rests on this.
func TestTilingIndependentOfNodes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomTestNet(t, r, 50, 1000, 1000, 150)
	b := randomTestNet(t, r, 800, 1000, 1000, 150)
	if a.Tiles() != b.Tiles() {
		t.Fatalf("tile counts differ: %d vs %d", a.Tiles(), b.Tiles())
	}
	for q := 0; q < 200; q++ {
		p := queryPoint(r, 1000, 1000)
		ca, cb := a.cellOf(p), b.cellOf(p)
		ta := (ca / a.cols / TileSpan) * a.tileCols
		tb := (cb / b.cols / TileSpan) * b.tileCols
		ta += ca % a.cols / TileSpan
		tb += cb % b.cols / TileSpan
		if ta != tb {
			t.Fatalf("point %v maps to tile %d in one deployment, %d in the other", p, ta, tb)
		}
	}
}

// TestParallelAdjacencyMatchesSerial is the satellite equivalence test:
// the adjacency built in chunks of adjChunk IDs must be exactly the CSR of
// one chunk over every node, on networks both below and above one chunk. Every row must also be capped at its length, so an append to
// one can never overwrite the next, and the neighbor array exactly sized.
func TestParallelAdjacencyMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, n := range []int{300, adjChunk + 500} {
		nw := randomTestNet(t, r, n, 2000, 1500, 80)
		ref := &Network{
			pos: nw.pos, phys: nw.phys, rng: nw.rng, width: nw.width, height: nw.height,
			cellSize: nw.cellSize, cols: nw.cols, rows: nw.rows, cells: nw.cells,
			off: make([]int32, nw.Len()+1),
		}
		ref.nbr = ref.adjacencyRows(0, nw.Len())
		for id := range nw.Len() {
			ref.off[id+1] += ref.off[id]
		}
		for i := range nw.Len() {
			if !reflect.DeepEqual(nw.Neighbors(i), ref.Neighbors(i)) {
				t.Fatalf("n=%d: adjacency row %d differs: parallel %v, serial %v",
					n, i, nw.Neighbors(i), ref.Neighbors(i))
			}
			if row := nw.Neighbors(i); cap(row) != len(row) {
				t.Fatalf("n=%d: row %d has len %d but cap %d", n, i, len(row), cap(row))
			}
		}
		if !reflect.DeepEqual(nw.off, ref.off) || len(nw.nbr) != len(ref.nbr) || cap(nw.nbr) != len(nw.nbr) {
			t.Fatalf("n=%d: %d offsets, %d entries (cap %d); serial %d offsets, %d entries",
				n, len(nw.off), len(nw.nbr), cap(nw.nbr), len(ref.off), len(ref.nbr))
		}
	}
}
