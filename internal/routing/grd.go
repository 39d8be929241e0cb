package routing

import (
	"gmp/internal/sim"
	"gmp/internal/view"
)

// GRD routes an independent packet to every destination with greedy
// geographic forwarding plus GPSR-style perimeter recovery. It explicitly
// minimizes the per-destination hop count, serving as the paper's lower
// bound for Figure 12 and the upper extreme for total hops (no sharing at
// all).
type GRD struct{}

var _ Protocol = (*GRD)(nil)

func init() {
	MustRegister(Spec{Name: "GRD", PaperRank: 6, Progress: ProgressPerDest,
		New: func(Ctx) Protocol { return NewGRD() }})
}

// NewGRD returns the multiple-unicast baseline.
func NewGRD() *GRD { return &GRD{} }

// Name implements Protocol.
func (g *GRD) Name() string { return "GRD" }

// Start implements sim.Handler: one independent packet per destination.
func (g *GRD) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	fwds := make([]sim.Forward, 0, len(pkt.Dests))
	for _, d := range pkt.Dests {
		fwds = append(fwds, g.forward(v, pkt.Sub([]int{d}))...)
	}
	return fwds
}

// Nack implements sim.NackHandler: the engine has already blacklisted the
// failed link, so v masks the dead neighbor — retry greedy forwarding
// (falling back to perimeter mode) over the remaining neighbors.
func (g *GRD) Nack(v view.NodeView, to int, pkt *sim.Packet) []sim.Forward {
	return g.forward(v, pkt.Header)
}

// Decide implements sim.Handler.
func (g *GRD) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if len(pkt.Dests) != 1 {
		return dropOnly(pkt.Header) // GRD packets always carry exactly one destination
	}
	if pkt.Perimeter && !faceExited(v, pkt.Locs[0], pkt.Peri) {
		return faceStep(v, pkt.Peri, pkt.Header)
	}
	return g.forward(v, pkt.Header)
}

// forward takes the copy h one greedy step, entering perimeter mode at
// local minima.
func (g *GRD) forward(v view.NodeView, h sim.Header) []sim.Forward {
	target := h.Locs[0]
	if next := greedyNextHop(v, target); next != -1 {
		h.Perimeter = false
		return []sim.Forward{{To: next, Header: h}}
	}
	return faceStart(v, target, h)
}
