// Package network implements the paper's §2 wireless sensor network model: a
// set of nodes with known coordinates in a rectangular region, communicating
// over unit-disk radio links. Node locations double as identifiers and
// network addresses; there is no separate ID-establishment protocol.
//
// The package provides seeded uniform deployment, a grid spatial index for
// fast neighbor queries, adjacency precomputation, and connectivity probes.
package network

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"gmp/internal/geom"
	"gmp/internal/steiner"
)

// Node is a sensor node: an identifier plus a position. The position is the
// node's address in the geographic routing scheme.
type Node struct {
	ID  int
	Pos geom.Point
}

// Network is an immutable snapshot of a deployed sensor field with unit-disk
// connectivity of a fixed radio range. Build one with New; all query methods
// are safe for concurrent use afterwards.
type Network struct {
	// pos is the position array Pos reads: node ID -> the position the node
	// reports. It is phys itself unless a reported-position view
	// (WithPositionNoise, WithReportedPositions) swaps in its own slice.
	pos []geom.Point
	// phys is node ID -> true position, the one radio physics reads.
	phys   []geom.Point
	rng    float64 // radio range
	width  float64
	height float64

	cellSize float64
	cols     int
	rows     int
	cells    [][]int // cell index -> node IDs

	// Coarse tile layer above the cells: tileSpan×tileSpan blocks of grid
	// cells, the unit of spatial decomposition the sharded simulation kernel
	// partitions work by. The tiling is a pure function of the region
	// geometry and radio range — never of how many workers will process it —
	// which is what lets the kernel stay byte-identical for any shard count.
	tileCols int
	tileRows int
	tiles    [][]int // tile index -> node IDs, ascending
	nodeTile []int32 // node ID -> tile index

	// off and nbr hold the adjacency in compressed sparse rows: node id's
	// neighbors, sorted ascending, are nbr[off[id]:off[id+1]]. IDs are
	// int32, so New refuses a field whose nodes or entries int32 cannot
	// count (checkInt32).
	off []int32
	nbr []int32

	// down marks nodes with failed radios in views derived with failures
	// (WithFailures); nil when no radio is dead.
	down []bool

	// tables is set fresh by New and by derive, the one constructor of
	// views (views.go).
	tables *viewTables
}

// viewTables are a network view's derived tables, each built once on first
// use: edge lengths parallel to nbr (only SMT reads them) and
// connected-component labels.
type viewTables struct {
	wOnce, compOnce sync.Once
	w               []float64 // w[i] = Dist(v, nbr[i]) for i in v's row
	comp            []int32   // node ID -> component label
}

// lengths returns nw's edge lengths, building them on first use.
func (nw *Network) lengths() []float64 {
	t := nw.tables
	t.wOnce.Do(func() {
		t.w = make([]float64, len(nw.nbr))
		for v := range nw.phys {
			for i := nw.off[v]; i < nw.off[v+1]; i++ {
				t.w[i] = nw.Dist(v, int(nw.nbr[i]))
			}
		}
	})
	return t.w
}

// components returns nw's component labels, building them on first use.
// Labels are handed out in order of each component's lowest node ID, so
// node 0's component is label 0.
func (nw *Network) components() []int32 {
	t := nw.tables
	t.compOnce.Do(func() {
		t.comp = make([]int32, len(nw.phys))
		for i := range t.comp {
			t.comp[i] = -1
		}
		var queue []int32
		label := int32(0)
		for src := range t.comp {
			if t.comp[src] >= 0 {
				continue
			}
			t.comp[src] = label
			queue = append(queue[:0], int32(src))
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, n := range nw.Neighbors(int(v)) {
					if t.comp[n] < 0 {
						t.comp[n] = label
						queue = append(queue, n)
					}
				}
			}
			label++
		}
	})
	return t.comp
}

// Validation errors returned by New.
var (
	ErrNoNodes       = errors.New("network: no nodes")
	ErrBadRange      = errors.New("network: radio range must be positive and finite")
	ErrBadDimensions = errors.New("network: region dimensions must be positive and finite")
	ErrBadPosition   = errors.New("network: node position must be finite")
)

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// maxCells bounds the cell grid New builds, one cell per radio range
// squared: 2048×2048 cells, about 100 MB of cell lists. A 10⁶-node field at
// the paper's density and range needs 213×213.
const maxCells = 1 << 22

// New builds a network over the given nodes in a width×height region with
// the given radio range. Node IDs must equal their slice index (deployments
// from this package guarantee that). The range and dimensions must be
// positive and finite, the region at most maxCells radio-range cells, and
// every coordinate finite; a bad position is reported as an error wrapping
// ErrBadPosition that names the node. A field with more nodes or adjacency
// entries than an int32 can count is refused with an error wrapping
// ErrBadDimensions.
func New(nodes []Node, width, height, radioRange float64) (*Network, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	if err := checkInt32(len(nodes), 0); err != nil {
		return nil, err
	}
	if radioRange <= 0 || !finite(radioRange) {
		return nil, ErrBadRange
	}
	if width <= 0 || height <= 0 || !finite(width) || !finite(height) {
		return nil, ErrBadDimensions
	}
	// Sized as floats, so that a huge ratio cannot overflow the conversion
	// to int.
	cols, rows := math.Ceil(width/radioRange)+1, math.Ceil(height/radioRange)+1
	if cols*rows > maxCells {
		return nil, fmt.Errorf("%w: %g×%g m at range %g m needs %g cells, at most %d", ErrBadDimensions, width, height, radioRange, cols*rows, maxCells)
	}
	phys := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		if n.ID != i {
			return nil, fmt.Errorf("network: node at index %d has ID %d; IDs must be dense", i, n.ID)
		}
		if !finite(n.Pos.X) || !finite(n.Pos.Y) {
			return nil, fmt.Errorf("%w: node %d at (%v, %v)", ErrBadPosition, i, n.Pos.X, n.Pos.Y)
		}
		phys[i] = n.Pos
	}

	nw := &Network{
		pos:      phys,
		phys:     phys,
		rng:      radioRange,
		width:    width,
		height:   height,
		cellSize: radioRange,
		cols:     int(cols),
		rows:     int(rows),
	}
	nw.cells = make([][]int, nw.cols*nw.rows)
	for id, p := range phys {
		c := nw.cellOf(p)
		nw.cells[c] = append(nw.cells[c], id)
	}
	nw.buildTiles()
	if err := nw.buildAdjacency(); err != nil {
		return nil, err
	}
	nw.tables = new(viewTables)
	return nw, nil
}

// TileSpan is the tile edge length in grid cells: a tile covers a
// TileSpan×TileSpan block of cells, i.e. a square of TileSpan radio ranges
// per side. The constant is frozen — the sharded kernel's event order ties
// break on tile indices, so changing it changes every sharded run.
const TileSpan = 4

// buildTiles derives the coarse tile layer from the cell grid: tile (tx, ty)
// covers cells [tx·TileSpan, (tx+1)·TileSpan) × [ty·TileSpan, (ty+1)·TileSpan).
// Cell membership already owns the border conventions (cellOf clamps and
// assigns a coordinate exactly on a cell edge to the higher cell), so a node
// exactly on a tile border belongs to exactly one tile, consistently with its
// cell.
func (nw *Network) buildTiles() {
	nw.tileCols = (nw.cols + TileSpan - 1) / TileSpan
	nw.tileRows = (nw.rows + TileSpan - 1) / TileSpan
	nw.tiles = make([][]int, nw.tileCols*nw.tileRows)
	nw.nodeTile = make([]int32, len(nw.phys))
	for id, p := range nw.phys {
		c := nw.cellOf(p)
		cx, cy := c%nw.cols, c/nw.cols
		t := (cy/TileSpan)*nw.tileCols + cx/TileSpan
		nw.nodeTile[id] = int32(t)
	}
	// Nodes are iterated in ID order above, but build the per-tile lists in a
	// second pass so each list is ascending by construction.
	for id := range nw.phys {
		t := nw.nodeTile[id]
		nw.tiles[t] = append(nw.tiles[t], id)
	}
}

// Tiles returns the number of coarse spatial tiles. The tiling depends only
// on the region geometry and radio range (TileSpan cells per side), so it is
// identical for every network built over the same region.
func (nw *Network) Tiles() int { return len(nw.tiles) }

// Tile returns the tile index of node id.
func (nw *Network) Tile(id int) int { return int(nw.nodeTile[id]) }

// TileNodes returns the IDs of the nodes in tile t, ascending. The returned
// slice is shared; callers must not mutate it.
func (nw *Network) TileNodes(t int) []int { return nw.tiles[t] }

func (nw *Network) cellOf(p geom.Point) int {
	cx := int(p.X / nw.cellSize)
	cy := int(p.Y / nw.cellSize)
	cx = clampInt(cx, 0, nw.cols-1)
	cy = clampInt(cy, 0, nw.rows-1)
	return cy*nw.cols + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// adjChunk is the number of consecutive node IDs whose rows buildAdjacency
// builds in one goroutine. A network below it is built as one chunk, where
// goroutine setup would dominate; the chunk count depends on the node count
// alone, never on the machine, so New allocates the same on every host.
const adjChunk = 4096

// buildAdjacency precomputes the sorted unit-disk neighbor rows using the
// grid: candidates for a node can only lie in its own or the eight adjacent
// cells. Each row is an independent, deterministic function of the
// (already built) cell index, so the rows are computed in chunks of
// adjChunk consecutive IDs, in parallel, and concatenated into the one CSR:
// byte-identical for any chunk size, just faster. It refuses a field with
// more adjacency entries than int32 offsets can count.
func (nw *Network) buildAdjacency() error {
	n := len(nw.phys)
	nw.off = make([]int32, n+1)
	rows := make([][]int32, (n+adjChunk-1)/adjChunk)
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i] = nw.adjacencyRows(i*adjChunk, min((i+1)*adjChunk, n))
		}(i)
	}
	wg.Wait()
	entries := 0
	for _, r := range rows {
		entries += len(r)
	}
	if err := checkInt32(n, entries); err != nil {
		return err
	}
	nw.nbr = make([]int32, 0, entries)
	for _, r := range rows {
		nw.nbr = append(nw.nbr, r...)
	}
	for id := range n {
		nw.off[id+1] += nw.off[id]
	}
	return nil
}

// adjacencyRows returns the neighbor rows of node IDs [lo, hi), packed in
// ID order, and writes each node's degree to off[id+1]. Chunks write
// disjoint entries of off, so concurrent calls on disjoint ranges are safe.
func (nw *Network) adjacencyRows(lo, hi int) []int32 {
	r2 := nw.rng * nw.rng
	var flat []int32
	for i, p := range nw.phys[lo:hi] {
		cx := clampInt(int(p.X/nw.cellSize), 0, nw.cols-1)
		cy := clampInt(int(p.Y/nw.cellSize), 0, nw.rows-1)
		start := len(flat)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y := cx+dx, cy+dy
				if x < 0 || x >= nw.cols || y < 0 || y >= nw.rows {
					continue
				}
				for _, id := range nw.cells[y*nw.cols+x] {
					if id == lo+i {
						continue
					}
					if p.Dist2(nw.phys[id]) <= r2 {
						flat = append(flat, int32(id))
					}
				}
			}
		}
		slices.Sort(flat[start:])
		nw.off[lo+i+1] = int32(len(flat) - start)
	}
	return flat
}

// checkInt32 refuses a field whose node count or adjacency entries do not
// fit the int32 IDs and offsets of the CSR.
func checkInt32(nodes, entries int) error {
	if nodes > math.MaxInt32 || entries > math.MaxInt32 {
		return fmt.Errorf("%w: %d nodes with %d adjacency entries, at most %d of each", ErrBadDimensions, nodes, entries, math.MaxInt32)
	}
	return nil
}

// Len returns the number of nodes.
func (nw *Network) Len() int { return len(nw.phys) }

// Range returns the radio range.
func (nw *Network) Range() float64 { return nw.rng }

// Width returns the region width in meters.
func (nw *Network) Width() float64 { return nw.width }

// Height returns the region height in meters.
func (nw *Network) Height() float64 { return nw.height }

// Pos returns the position of node id as the node itself reports it. It
// equals the true position except in views built with WithPositionNoise or
// WithReportedPositions.
func (nw *Network) Pos(id int) geom.Point { return nw.pos[id] }

// Positions returns the array Pos reads, indexed by node ID. The slice is
// shared; callers must not mutate it.
func (nw *Network) Positions() []geom.Point { return nw.pos }

// ReportsTruePositions reports whether no reported-position overlay lies on
// this view, so Pos is the true position of every node by construction. An
// overlay swaps in its own position array, so the two arrays are then
// distinct.
func (nw *Network) ReportsTruePositions() bool { return &nw.pos[0] == &nw.phys[0] }

// Dist returns the Euclidean distance between the reported positions of
// nodes a and b.
func (nw *Network) Dist(a, b int) float64 { return nw.Pos(a).Dist(nw.Pos(b)) }

// Neighbors returns the IDs of all nodes within radio range of node id,
// sorted ascending. The returned slice is shared and capped at its length,
// so an append copies; callers must not mutate it.
func (nw *Network) Neighbors(id int) []int32 {
	lo, hi := nw.off[id], nw.off[id+1]
	return nw.nbr[lo:hi:hi]
}

// Degree returns the number of neighbors of node id.
func (nw *Network) Degree(id int) int { return int(nw.off[id+1] - nw.off[id]) }

// AvgDegree returns the mean neighbor count over all nodes.
func (nw *Network) AvgDegree() float64 {
	return float64(len(nw.nbr)) / float64(len(nw.phys))
}

// InRange reports whether nodes a and b can hear each other: geometrically
// within radio range and both radios alive.
func (nw *Network) InRange(a, b int) bool {
	if !nw.Alive(a) || !nw.Alive(b) {
		return false
	}
	return nw.phys[a].Dist2(nw.phys[b]) <= nw.rng*nw.rng
}

// bestInCell scans one grid cell for a node closer to p than (best, bestD),
// preferring the lower ID on exact distance ties. Cells hold IDs in
// ascending order, so the in-cell scan already matches a full ID-order scan.
func (nw *Network) bestInCell(ci int, p geom.Point, best int, bestD float64) (int, float64) {
	for _, id := range nw.cells[ci] {
		if d := nw.phys[id].Dist2(p); d < bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best, bestD
}

// ClosestNode returns the ID of the node closest to p (the lowest ID on
// exact distance ties, matching a full scan in ID order). It expands
// Chebyshev rings of grid cells around p's cell instead of scanning all
// nodes: geocast source selection and perimeter fallback call this per
// packet.
func (nw *Network) ClosestNode(p geom.Point) int {
	cx := clampInt(int(p.X/nw.cellSize), 0, nw.cols-1)
	cy := clampInt(int(p.Y/nw.cellSize), 0, nw.rows-1)
	best, bestD := nw.bestInCell(cy*nw.cols+cx, p, -1, math.Inf(1))
	// cols+rows rings reach every cell from any start, even a corner.
	for r := 1; r <= nw.cols+nw.rows; r++ {
		if best != -1 {
			// Every point of a ring-r cell is at least (r-1)·cellSize from p:
			// p projects into its (clamped) center cell, projection onto the
			// grid rectangle only shrinks distances, and r-1 full cell widths
			// separate the projection from ring r. Strict `>` (not `>=`)
			// keeps scanning while an exactly-tied farther node with a lower
			// ID could still exist, preserving the full-scan tie-break.
			if lb := float64(r-1) * nw.cellSize; lb*lb > bestD {
				break
			}
		}
		x0, x1 := cx-r, cx+r
		y0, y1 := cy-r, cy+r
		for x := x0; x <= x1; x++ { // top and bottom edges of the ring
			if x < 0 || x >= nw.cols {
				continue
			}
			if y0 >= 0 {
				best, bestD = nw.bestInCell(y0*nw.cols+x, p, best, bestD)
			}
			if y1 < nw.rows {
				best, bestD = nw.bestInCell(y1*nw.cols+x, p, best, bestD)
			}
		}
		for y := y0 + 1; y < y1; y++ { // left and right edges, corners done
			if y < 0 || y >= nw.rows {
				continue
			}
			if x0 >= 0 {
				best, bestD = nw.bestInCell(y*nw.cols+x0, p, best, bestD)
			}
			if x1 < nw.cols {
				best, bestD = nw.bestInCell(y*nw.cols+x1, p, best, bestD)
			}
		}
	}
	return best
}

// NodesInDisk returns the IDs of all nodes within radius of p, sorted. Only
// the grid cells overlapping the disk's bounding box are scanned. Positions
// outside the region clamp to border cells, and the clamped box bounds are
// monotone in the coordinates, so out-of-region nodes are still found.
func (nw *Network) NodesInDisk(p geom.Point, radius float64) []int {
	var out []int
	if radius < 0 {
		return out
	}
	r2 := radius * radius
	x0 := clampInt(int((p.X-radius)/nw.cellSize), 0, nw.cols-1)
	x1 := clampInt(int((p.X+radius)/nw.cellSize), 0, nw.cols-1)
	y0 := clampInt(int((p.Y-radius)/nw.cellSize), 0, nw.rows-1)
	y1 := clampInt(int((p.Y+radius)/nw.cellSize), 0, nw.rows-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, id := range nw.cells[y*nw.cols+x] {
				if nw.phys[id].Dist2(p) <= r2 {
					out = append(out, id)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// Graph returns the unit-disk connectivity graph in the representation
// expected by the steiner package's KMB heuristic, with Dist as its edge
// lengths and the reported positions they are computed from, so that KMB
// can cut its rows at the straight line. The lengths are computed once per
// view and shared.
func (nw *Network) Graph() steiner.Graph {
	return steiner.Graph{N: len(nw.phys), Off: nw.off, Nbr: nw.nbr, W: nw.lengths(), Pos: nw.pos}
}

// Component returns the label of node id's connected component: two nodes
// can reach each other over radio links exactly when their labels are
// equal. Labels are computed once per view.
func (nw *Network) Component(id int) int { return int(nw.components()[id]) }

// Connected reports whether the unit-disk graph is connected: every node
// shares node 0's component.
func (nw *Network) Connected() bool {
	for _, c := range nw.components() {
		if c != 0 {
			return false
		}
	}
	return true
}

// ReachableFrom returns the set of node IDs reachable from src over radio
// links, as a sorted slice including src itself.
func (nw *Network) ReachableFrom(src int) []int {
	comp := nw.components()
	var out []int
	for id, c := range comp {
		if c == comp[src] {
			out = append(out, id)
		}
	}
	return out
}

// HopDistances returns BFS hop counts from src to every node; unreachable
// nodes get -1.
func (nw *Network) HopDistances(src int) []int {
	dist := make([]int, len(nw.phys))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range nw.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return dist
}
