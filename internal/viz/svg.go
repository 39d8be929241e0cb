// Package viz renders deployments, planar graphs, Steiner trees and executed
// multicast traces as standalone SVG documents — the visual counterpart of
// the paper's Figures 1, 4, 8 and 9, generated from live simulation state.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/steiner"
)

// Style selects colors and stroke widths for one layer.
type Style struct {
	Stroke      string
	StrokeWidth float64
	Fill        string
	Dashed      bool
	Opacity     float64
}

// Default layer styles.
var (
	nodeStyle      = Style{Fill: "#9aa7b1", Opacity: 0.9}
	sourceStyle    = Style{Fill: "#d62728"}
	destStyle      = Style{Fill: "#1f77b4"}
	virtualStyle   = Style{Fill: "#ff9900"}
	linkStyle      = Style{Stroke: "#dfe6ec", StrokeWidth: 0.5, Opacity: 0.8}
	planarStyle    = Style{Stroke: "#b9cbd8", StrokeWidth: 0.8, Opacity: 0.9}
	treeStyle      = Style{Stroke: "#ff9900", StrokeWidth: 1.6}
	routeStyle     = Style{Stroke: "#2ca02c", StrokeWidth: 1.8}
	perimeterStyle = Style{Stroke: "#d62728", StrokeWidth: 1.8, Dashed: true}
)

// Canvas accumulates SVG layers over a fixed world rectangle. Create with
// NewCanvas and finish with String.
type Canvas struct {
	width, height float64
	margin        float64
	scale         float64
	body          strings.Builder
}

// NewCanvas prepares a drawing surface for a world of the given dimensions
// in meters, rendered at the given pixel scale.
func NewCanvas(worldW, worldH, scale float64) *Canvas {
	if scale <= 0 {
		scale = 0.6
	}
	return &Canvas{width: worldW, height: worldH, margin: 12, scale: scale}
}

// xy maps a world point to pixel coordinates (SVG y grows downward).
func (c *Canvas) xy(p geom.Point) (float64, float64) {
	return c.margin + p.X*c.scale, c.margin + (c.height-p.Y)*c.scale
}

func (s Style) lineAttrs() string {
	var b strings.Builder
	if s.Stroke != "" {
		fmt.Fprintf(&b, ` stroke=%q`, s.Stroke)
	}
	if s.StrokeWidth > 0 {
		fmt.Fprintf(&b, ` stroke-width="%.2f"`, s.StrokeWidth)
	}
	if s.Dashed {
		b.WriteString(` stroke-dasharray="5,4"`)
	}
	if s.Opacity > 0 && s.Opacity < 1 {
		fmt.Fprintf(&b, ` opacity="%.2f"`, s.Opacity)
	}
	return b.String()
}

// Line draws a segment between two world points.
func (c *Canvas) Line(a, b geom.Point, s Style) {
	x1, y1 := c.xy(a)
	x2, y2 := c.xy(b)
	fmt.Fprintf(&c.body, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"%s/>`+"\n",
		x1, y1, x2, y2, s.lineAttrs())
}

// Circle draws a dot at a world point with the given pixel radius.
func (c *Canvas) Circle(p geom.Point, r float64, s Style) {
	x, y := c.xy(p)
	fill := s.Fill
	if fill == "" {
		fill = "#000"
	}
	op := ""
	if s.Opacity > 0 && s.Opacity < 1 {
		op = fmt.Sprintf(` opacity="%.2f"`, s.Opacity)
	}
	fmt.Fprintf(&c.body, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill=%q%s/>`+"\n",
		x, y, r, fill, op)
}

// Text places a small label at a world point.
func (c *Canvas) Text(p geom.Point, label string) {
	x, y := c.xy(p)
	fmt.Fprintf(&c.body, `<text x="%.1f" y="%.1f" font-size="9" fill="#444">%s</text>`+"\n",
		x+4, y-4, label)
}

// String finalizes the SVG document.
func (c *Canvas) String() string {
	w := c.width*c.scale + 2*c.margin
	h := c.height*c.scale + 2*c.margin
	return fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">
<rect width="100%%" height="100%%" fill="white"/>
%s</svg>
`, w, h, w, h, c.body.String())
}

// DrawNodes renders every node of the network as a dot.
func (c *Canvas) DrawNodes(nw *network.Network) {
	for i := 0; i < nw.Len(); i++ {
		c.Circle(nw.Pos(i), 1.6, nodeStyle)
	}
}

// DrawLinks renders all unit-disk links (dense; use for small networks).
func (c *Canvas) DrawLinks(nw *network.Network) {
	for u := 0; u < nw.Len(); u++ {
		for _, v := range nw.Neighbors(u) {
			if u < int(v) {
				c.Line(nw.Pos(u), nw.Pos(int(v)), linkStyle)
			}
		}
	}
}

// DrawPlanar renders the planarized subgraph.
func (c *Canvas) DrawPlanar(g *planar.Graph) {
	nw := g.Network()
	for u := 0; u < nw.Len(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				c.Line(nw.Pos(u), nw.Pos(v), planarStyle)
			}
		}
	}
}

// DrawTree renders a Steiner tree: edges in the tree color, virtual vertices
// as hollow diamonds (orange dots), terminals blue, source red.
func (c *Canvas) DrawTree(t *steiner.Tree) {
	for _, e := range t.Edges() {
		c.Line(t.Vertex(e.A).Pos, t.Vertex(e.B).Pos, treeStyle)
	}
	for _, v := range t.Vertices() {
		switch v.Kind {
		case steiner.Source:
			c.Circle(v.Pos, 4, sourceStyle)
		case steiner.Terminal:
			c.Circle(v.Pos, 3, destStyle)
		case steiner.Virtual:
			c.Circle(v.Pos, 2.5, virtualStyle)
		}
	}
}

// DrawTrace renders an executed multicast: greedy transmissions in green,
// perimeter-mode transmissions dashed red.
func (c *Canvas) DrawTrace(nw *network.Network, events []sim.TraceEvent) {
	for _, ev := range events {
		style := routeStyle
		if ev.Perimeter {
			style = perimeterStyle
		}
		c.Line(nw.Pos(ev.From), nw.Pos(ev.To), style)
	}
}

// regionStyle outlines geocast regions.
var regionStyle = Style{Stroke: "#9467bd", StrokeWidth: 1.5, Dashed: true}

// DrawRegion outlines a geocast region: disks as circles, rectangles and
// polygons as closed paths. Unknown region types fall back to a marker at
// the region's anchor.
func (c *Canvas) DrawRegion(region geom.Region) {
	switch r := region.(type) {
	case geom.Disk:
		x, y := c.xy(r.C)
		fmt.Fprintf(&c.body, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none"%s/>`+"\n",
			x, y, r.R*c.scale, regionStyle.lineAttrs())
	case geom.Rect:
		c.drawClosedPath([]geom.Point{
			r.Min, geom.Pt(r.Max.X, r.Min.Y), r.Max, geom.Pt(r.Min.X, r.Max.Y),
		})
	case geom.Polygon:
		c.drawClosedPath(r.Vertices)
	default:
		c.Circle(region.Anchor(), 5, Style{Fill: regionStyle.Stroke})
	}
}

func (c *Canvas) drawClosedPath(verts []geom.Point) {
	if len(verts) == 0 {
		return
	}
	var d strings.Builder
	for i, v := range verts {
		x, y := c.xy(v)
		cmd := "L"
		if i == 0 {
			cmd = "M"
		}
		fmt.Fprintf(&d, "%s%.1f %.1f ", cmd, x, y)
	}
	d.WriteString("Z")
	fmt.Fprintf(&c.body, `<path d=%q fill="none"%s/>`+"\n", d.String(), regionStyle.lineAttrs())
}

// MarkTask highlights a task's source (red) and destinations (blue) with
// labels.
func (c *Canvas) MarkTask(nw *network.Network, src int, dests []int) {
	sorted := append([]int(nil), dests...)
	sort.Ints(sorted)
	for _, d := range sorted {
		c.Circle(nw.Pos(d), 4, destStyle)
		c.Text(nw.Pos(d), fmt.Sprintf("d%d", d))
	}
	c.Circle(nw.Pos(src), 5, sourceStyle)
	c.Text(nw.Pos(src), fmt.Sprintf("s%d", src))
}

// RenderTask is the one-call convenience used by the gmpviz CLI: network
// backdrop, planar overlay, executed trace, task markers.
func RenderTask(nw *network.Network, pg *planar.Graph, events []sim.TraceEvent, src int, dests []int) string {
	c := NewCanvas(nw.Width(), nw.Height(), 0.6)
	c.DrawNodes(nw)
	if pg != nil {
		c.DrawPlanar(pg)
	}
	c.DrawTrace(nw, events)
	c.MarkTask(nw, src, dests)
	return c.String()
}

// RenderTree is the convenience for rrSTR tree inspection.
func RenderTree(worldW, worldH float64, t *steiner.Tree) string {
	c := NewCanvas(worldW, worldH, 0.6)
	c.DrawTree(t)
	return c.String()
}
