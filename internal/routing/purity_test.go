package routing

import (
	"math/rand"
	"reflect"
	"testing"

	"gmp/internal/sim"
	"gmp/internal/view"
)

// purityChecker wraps a protocol and calls every decision twice — once on a
// clone of the packet, once on the original — asserting both calls emit
// identical forward lists. Any divergence means a decision mutated its input
// packet or depended on hidden state, breaking the pure-decision contract.
type purityChecker struct {
	t *testing.T
	p Protocol
}

func (c purityChecker) Name() string { return c.p.Name() }

// RedundantCopies forwards the wrapped protocol's redundancy trait, so the
// engine accounts a wrapped concurrent protocol (MCFR) exactly like the bare
// instance — otherwise the wrapper would silently disable deferred drop
// billing and the doubled run's metrics could never match the plain run's.
func (c purityChecker) RedundantCopies() bool {
	rh, ok := c.p.(sim.RedundantHandler)
	return ok && rh.RedundantCopies()
}

func (c purityChecker) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	first := c.p.Start(v, pkt.Clone())
	second := c.p.Start(v, pkt)
	c.compare("Start", v, first, second)
	return second
}

func (c purityChecker) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	first := c.p.Decide(v, pkt.Clone())
	second := c.p.Decide(v, pkt)
	c.compare("Decide", v, first, second)
	return second
}

// compare checks two forward lists emit the same transmissions. Packet
// pointers differ between the calls; the on-the-wire content must not.
func (c purityChecker) compare(step string, v view.NodeView, a, b []sim.Forward) {
	c.t.Helper()
	if len(a) != len(b) {
		c.t.Fatalf("%s %s at node %d: %d forwards vs %d", c.p.Name(), step, v.Self(), len(a), len(b))
	}
	for i := range a {
		if a[i].To != b[i].To {
			c.t.Fatalf("%s %s at node %d: forward %d to %d vs %d",
				c.p.Name(), step, v.Self(), i, a[i].To, b[i].To)
		}
		pa, pb := a[i].Header, b[i].Header
		if !reflect.DeepEqual(pa.Dests, pb.Dests) || !reflect.DeepEqual(pa.Locs, pb.Locs) ||
			pa.Perimeter != pb.Perimeter || pa.Peri != pb.Peri ||
			pa.Anchor != pb.Anchor || !reflect.DeepEqual(pa.Route, pb.Route) {
			c.t.Fatalf("%s %s at node %d: forward %d packets differ:\n%+v\nvs\n%+v",
				c.p.Name(), step, v.Self(), i, pa, pb)
		}
	}
}

// TestDecisionsArePure re-runs every per-hop decision of full multicast tasks
// and demands identical output — the referential-transparency property the
// engine relies on. Geocast is excluded by design: its flood keeps a
// duplicate-suppression set across hops (documented impurity); dead-link
// state lives in the engine's per-session blacklist, not the protocols.
func TestDecisionsArePure(t *testing.T) {
	bed := denseBed(t, 331, 800)
	for _, p := range bed.protocols() {
		doubled := purityChecker{t: t, p: p}
		src, dests := pickTask(rand.New(rand.NewSource(337)), bed.nw.Len(), 10)
		m := bed.en.RunTask(doubled, src, dests)
		if m.InvalidSends != 0 {
			t.Fatalf("%s: invalid sends under purity wrapper", p.Name())
		}
		// The doubled run must also match a plain run exactly.
		plain := bed.en.RunTask(p, src, dests)
		if !reflect.DeepEqual(m, plain) {
			t.Fatalf("%s: purity wrapper changed task metrics:\n%+v\nvs\n%+v", p.Name(), m, plain)
		}
	}
}
