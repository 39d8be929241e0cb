package sim

import (
	"fmt"
	"slices"
	"sync"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// Header is the wire state of one packet copy: exactly the state the
// paper's protocols put on the wire — the remaining destination list with
// its header locations, the PERIMODE flag with its perimeter-traversal
// state, the LGT anchor and, for the source-routed SMT baseline only, the
// embedded routing tree. A decision's copies are Header values.
type Header struct {
	// Dests are the node IDs this copy is still responsible for.
	Dests []int
	// Locs are the destination locations as the wire header carries them,
	// parallel to Dests. Decisions route on these — a relay node knows a
	// destination's position only from the packet (§2), so staleness or
	// error in the header is exactly what the protocols see. The engine
	// stamps them at Start from its network's advertised positions.
	Locs []geom.Point
	// Perimeter is the paper's PERIMODE flag.
	Perimeter bool
	// Peri is the face-traversal state, valid while Perimeter is set.
	Peri planar.State
	// Route, when non-nil, is the source-computed routing tree of SMT
	// source routing.
	Route *Route
	// Anchor is the node ID this copy is steered toward before the next
	// re-partitioning, or -1 when unused. LGT protocols (LGS/LGK) only
	// re-partition at subtree roots; relays in between forward greedily
	// toward the anchor.
	Anchor int
}

// Packet is one multicast packet copy in flight: its wire header plus the
// state the kernel stamps on every transmission.
type Packet struct {
	Header
	// Hops is the number of transmissions this copy has undergone.
	Hops int
	// Session indexes the concurrent session this copy belongs to (always
	// 0 in single-task runs).
	Session int
}

// Route is a routing tree computed at the source and carried in the packet
// header. Its vertices are listed in preorder from the root, each vertex's
// children in ascending ID order, so every subtree is one contiguous run
// of the list. A Route is immutable once built; copies share it.
type Route struct {
	// Node lists the tree's vertices in preorder.
	Node []int
	// End[i] is one past the preorder index of the last vertex in the
	// subtree of Node[i].
	End []int
	// ByID lists the preorder indices in ascending vertex-ID order.
	ByID []int
}

// Find returns id's preorder index, or -1 when id is not in the tree.
func (r *Route) Find(id int) int {
	i, ok := slices.BinarySearchFunc(r.ByID, id, func(p, id int) int { return r.Node[p] - id })
	if !ok {
		return -1
	}
	return r.ByID[i]
}

// packetPool recycles the kernel's in-flight packets together with their
// Dests/Locs backing arrays. The kernel makes every in-flight packet (the
// session's start packet, and one per transmission, copying the forward's
// header in) and frees each exactly once, when the event that consumes it
// has finished: a delivery plus its decision, an ARQ give-up plus its Nack,
// or a kill. Handlers must not keep the packet they are shown, and
// forwards carry headers, not packets, so nothing else holds one by then. The
// pool is shared by all engines in the process; sync.Pool is safe for the
// parallel campaign workers.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// newPacket returns a pooled packet holding a copy of h. Its Dests/Locs
// never alias h's; Route is immutable after the source builds it, so it is
// shared.
func newPacket(h *Header, hops, session int) *Packet {
	p := packetPool.Get().(*Packet)
	dests := append(p.Dests[:0], h.Dests...)
	locs := append(p.Locs[:0], h.Locs...)
	*p = Packet{Header: *h, Hops: hops, Session: session}
	p.Dests, p.Locs = dests, locs
	return p
}

// freePacket returns a packet the kernel has finished with to the pool.
func freePacket(p *Packet) {
	*p = Packet{Header: Header{Dests: p.Dests[:0], Locs: p.Locs[:0]}}
	packetPool.Put(p)
}

// Clone deep-copies the packet: the copy's Dests/Locs never alias p's.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Dests = slices.Clone(p.Dests)
	q.Locs = slices.Clone(p.Locs)
	return &q
}

// LocOf returns the header location carried for destination id. The id must
// be present in Dests; asking for anything else is a protocol bug.
func (h *Header) LocOf(id int) geom.Point {
	for i, d := range h.Dests {
		if d == id {
			return h.Locs[i]
		}
	}
	panic(fmt.Sprintf("sim: destination %d not in packet header", id))
}

// Sub returns a copy of the header carrying only the given destinations
// (each must be present in h.Dests), with fresh header locations that
// follow the subset. The ids slice is adopted, not copied.
func (h *Header) Sub(ids []int) Header {
	locs := make([]geom.Point, len(ids))
	for i, id := range ids {
		locs[i] = h.LocOf(id)
	}
	s := *h
	s.Dests, s.Locs = ids, locs
	return s
}

// Forward is one element of a decision's output: transmit a copy with this
// header to neighbor To, or abandon it when To is a drop sentinel. The
// kernel copies the header into a packet of its own on send, so a forward
// may alias the packet the decision was shown, or share slices with other
// forwards; the copy's hop count and session come from that packet.
type Forward struct {
	// To is the next-hop node ID, or DropCopy/DropWatchdog.
	To int
	Header
}

// DropCopy, used as Forward.To, records that the protocol intentionally
// abandoned the copy (for example LGS upon meeting a void destination). The
// drop is billed to the session being decided.
const DropCopy = -1

// DropWatchdog, used as Forward.To, records that the perimeter watchdog
// killed a looping face traversal after exhausting its bounded recovery
// (view.PerimeterStep returning StepWatchdog). Billed as ReasonWatchdog to
// the session being decided.
const DropWatchdog = -2

// SentinelReason maps a drop sentinel used as Forward.To (DropCopy,
// DropWatchdog) onto the reason the copy is billed under; ok is false for a
// next-hop node ID.
func SentinelReason(to int) (reason DropReason, ok bool) {
	switch to {
	case DropCopy:
		return ReasonProtocol, true
	case DropWatchdog:
		return ReasonWatchdog, true
	}
	return 0, false
}

// DropReason classifies why a packet copy died. Every copy the engine
// originates either delivers all its destinations or is killed with exactly
// one reason, so per-reason counts account for every loss.
type DropReason int

const (
	// ReasonHopBudget: the copy exceeded the per-packet hop budget.
	ReasonHopBudget DropReason = iota
	// ReasonProtocol: the protocol intentionally abandoned the copy (a
	// DropCopy forward — e.g. LGS meeting a void destination).
	ReasonProtocol
	// ReasonStranded: a decision returned no forwards for a copy that still
	// had destinations aboard (e.g. a flood relay suppressing a duplicate).
	ReasonStranded
	// ReasonWatchdog: the perimeter watchdog killed a looping face
	// traversal (a DropWatchdog forward).
	ReasonWatchdog
	// ReasonLinkLoss: the frame was lost on the air and ARQ was off, so the
	// sender never learned.
	ReasonLinkLoss
	// ReasonCrashedReceiver: the frame was addressed to a crashed node and
	// ARQ was off.
	ReasonCrashedReceiver
	// ReasonSenderCrashed: the sender's radio died before the
	// (re)transmission went out.
	ReasonSenderCrashed
	// ReasonARQExhausted: ARQ retries ran out and no handler re-route
	// salvaged the copy.
	ReasonARQExhausted
	// ReasonInvalidSend: the decision addressed an out-of-range node or the
	// sender itself (a protocol bug; see TaskMetrics.InvalidSends).
	ReasonInvalidSend
	// ReasonLeft: the destination left the multicast group mid-session (a
	// ChurnPlan leave) and was retired from the packet header. Unlike every
	// other reason this does not kill the copy — DropsByReason[ReasonLeft]
	// counts retirement events, DestDropsByReason[ReasonLeft] the retired
	// destinations — but it participates in the conservation invariant the
	// same way, so delivered + dropped still accounts for every originated
	// destination exactly.
	ReasonLeft

	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case ReasonHopBudget:
		return "hop-budget"
	case ReasonProtocol:
		return "protocol"
	case ReasonStranded:
		return "stranded"
	case ReasonWatchdog:
		return "watchdog"
	case ReasonLinkLoss:
		return "link-loss"
	case ReasonCrashedReceiver:
		return "crashed-receiver"
	case ReasonSenderCrashed:
		return "sender-crashed"
	case ReasonARQExhausted:
		return "arq-exhausted"
	case ReasonInvalidSend:
		return "invalid-send"
	case ReasonLeft:
		return "left"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Handler is a routing protocol instance. Each hop is a pure decision
// function from (local view, packet) to a forward list that the engine
// applies in order; handlers never touch the engine and never see beyond
// the view's 1-hop horizon. Decisions must not mutate the packet they are
// given, and must not keep it, or any slice of it, past the call: the
// kernel frees it once the forwards are applied. A decision's copies are
// Header values — pkt.Header, edited as the copy needs, or pkt.Sub(ids) —
// and may alias pkt, since the kernel copies each on send. Implementations
// live in the routing package.
type Handler interface {
	// Start makes the source's forwarding decision. The engine has already
	// built the packet: destinations (minus the source itself) sorted
	// ascending, header locations stamped, hop count zero.
	Start(v view.NodeView, pkt *Packet) []Forward
	// Decide makes a relay node's forwarding decision for an arriving copy.
	// Destinations already delivered at this node have been stripped by the
	// engine (the packet always has at least one left).
	Decide(v view.NodeView, pkt *Packet) []Forward
}

// RedundantHandler marks handlers that intentionally route redundant
// concurrent copies toward the same destination (MCFR's two face
// directions). For their sessions the engine tolerates duplicate deliveries
// (first copy wins, later ones count DuplicateDeliveries) and defers the
// per-destination half of drop billing to end-of-run settlement: a
// destination is charged its first drop reason only if no copy ever
// delivered it, which keeps delivered+dropped == DestCount exact even though
// several copies carry the same destination. Copy-level drop counters stay
// immediate.
type RedundantHandler interface {
	Handler
	// RedundantCopies reports that the protocol duplicates destinations
	// across concurrent copies by design.
	RedundantCopies() bool
}

// redundantCopies reports whether h opts into redundant-copy accounting.
func redundantCopies(h Handler) bool {
	rh, ok := h.(RedundantHandler)
	return ok && rh.RedundantCopies()
}

// TaskMetrics aggregates what the paper measures for one multicast task.
type TaskMetrics struct {
	// Transmissions is the total number of packet transmissions — the
	// paper's "total number of hops" (Figure 11).
	Transmissions int
	// EnergyJ is the total energy in joules under the §5.3 model
	// (Figure 14).
	EnergyJ float64
	// Delivered maps each reached destination to the hop count at which it
	// was first reached (Figure 12 averages these).
	Delivered map[int]int
	// Dropped maps each destination no copy delivered to the reason of its
	// first drop in kernel time, for every session. Destinations retired
	// by churn are absent (they count under ReasonLeft only).
	Dropped map[int]DropReason
	// DropsByReason counts packet-copy deaths by cause.
	DropsByReason [NumDropReasons]int
	// DestDropsByReason counts, per cause, the destinations that were still
	// aboard each dying copy. Together with Delivered this makes every
	// originated destination accountable: for partition-discipline protocols
	// (each destination rides exactly one live copy at any time),
	// DestCount == len(Delivered) + Σ DestDropsByReason — the conservation
	// invariant AuditTask checks.
	DestDropsByReason [NumDropReasons]int
	// DuplicateDeliveries counts arrivals at an already-delivered
	// destination. Always zero under partition-discipline protocols;
	// region flooding (geocast) produces them by design.
	DuplicateDeliveries int
	// Retransmissions counts data frames re-sent by hop-by-hop ARQ. Each is
	// also counted in Transmissions.
	Retransmissions int
	// LinkFailures counts ARQ give-up events (retries exhausted on a link).
	// Each bans the link for the rest of the session; the copy itself dies
	// as ReasonARQExhausted only when no handler re-route salvages it.
	LinkFailures int
	// Acks counts ACK frames sent by receivers under ARQ. ACK energy is in
	// EnergyJ, but ACKs are not data transmissions and stay out of
	// Transmissions (the paper's hop metric).
	Acks int
	// InvalidSends counts attempted transmissions to nodes out of radio
	// range. Always zero for correct protocols; tests assert it.
	InvalidSends int
	// DestCount is the size of the task's destination set, including
	// mid-session joins spliced aboard by a ChurnPlan.
	DestCount int
	// JoinsSpliced counts churn joins that made it aboard the packet header
	// mid-session (each also increments DestCount at splice time).
	JoinsSpliced int
	// JoinsMissed counts churn joins that never became destinations: the
	// node was already a member, had already left, left again before any
	// packet passed by, or the session finished first.
	JoinsMissed int
	// EnergyByNode, when per-node accounting is enabled via
	// Engine.SetEnergyLedger, maps node IDs to joules drawn during the
	// task (transmit energy at senders, receive energy at listeners).
	EnergyByNode map[int]float64
}

// Failed reports whether the task missed at least one eligible destination
// — the paper's failure criterion for Figure 15. A destination that left
// mid-session (churn) is not a miss; without churn every destination is
// eligible.
func (m *TaskMetrics) Failed() bool { return len(m.Delivered) < m.EligibleDests() }

// Drops counts packet copies the routing layer gave up on: hop budget
// exhausted, protocol-intentional abandonment, or a watchdog kill.
func (m *TaskMetrics) Drops() int {
	return m.DropsByReason[ReasonHopBudget] + m.DropsByReason[ReasonProtocol] +
		m.DropsByReason[ReasonWatchdog]
}

// LossDrops counts packet copies lost to injected faults: frames lost on
// the air or addressed to a crashed node (without ARQ), copies from a
// crashed sender, or copies whose ARQ retries were exhausted without a
// salvaging re-route.
func (m *TaskMetrics) LossDrops() int {
	return m.DropsByReason[ReasonLinkLoss] + m.DropsByReason[ReasonCrashedReceiver] +
		m.DropsByReason[ReasonSenderCrashed] + m.DropsByReason[ReasonARQExhausted]
}

// TotalDrops counts every packet-copy death, over all reasons.
func (m *TaskMetrics) TotalDrops() int {
	var total int
	for _, n := range m.DropsByReason {
		total += n
	}
	return total
}

// DroppedDests counts the destinations aboard dying copies, over all
// reasons — the loss side of the conservation invariant.
func (m *TaskMetrics) DroppedDests() int {
	var total int
	for _, n := range m.DestDropsByReason {
		total += n
	}
	return total
}

// EligibleDests counts the destinations that did not leave mid-session —
// the fair denominator for delivery ratios under churn.
func (m *TaskMetrics) EligibleDests() int {
	return m.DestCount - m.DestDropsByReason[ReasonLeft]
}

// TotalHops is the paper's Figure 11 metric.
func (m *TaskMetrics) TotalHops() int { return m.Transmissions }

// AvgHopsPerDest is the paper's Figure 12 metric, averaged over *reached*
// destinations. Returns 0 when nothing was delivered.
func (m *TaskMetrics) AvgHopsPerDest() float64 {
	if len(m.Delivered) == 0 {
		return 0
	}
	var sum int
	for _, h := range m.Delivered {
		sum += h
	}
	return float64(sum) / float64(len(m.Delivered))
}

// Session describes one multicast job inside a concurrent script.
type Session struct {
	// Start is the virtual time the source begins its task.
	Start float64
	// Handler is the protocol instance driving this session. Sessions must
	// not share stateful handler instances (construct one per session).
	Handler Handler
	// Src and Dests define the task.
	Src   int
	Dests []int
}

// SessionMetrics extends TaskMetrics with timing observed under concurrent
// traffic.
type SessionMetrics struct {
	TaskMetrics
	// StartTime echoes the session's start.
	StartTime float64
	// DeliveredAt maps each reached destination to its virtual delivery
	// time (absolute; subtract StartTime for latency).
	DeliveredAt map[int]float64
}

// MaxLatency returns the worst per-destination delivery latency, or 0 when
// nothing was delivered.
func (m *SessionMetrics) MaxLatency() float64 {
	var worst float64
	for _, at := range m.DeliveredAt {
		if l := at - m.StartTime; l > worst {
			worst = l
		}
	}
	return worst
}

// MeanLatency returns the mean per-destination delivery latency.
func (m *SessionMetrics) MeanLatency() float64 {
	if len(m.DeliveredAt) == 0 {
		return 0
	}
	var sum float64
	for _, at := range m.DeliveredAt {
		sum += at - m.StartTime
	}
	return sum / float64(len(m.DeliveredAt))
}

// TraceEvent describes one transmission for observability tooling (the
// gmptrace CLI). Fields are snapshots taken at send time.
type TraceEvent struct {
	// Time is the virtual send time in seconds.
	Time float64
	// From and To are the transmitting and receiving node IDs.
	From, To int
	// Hops is the packet's hop count after this transmission.
	Hops int
	// Dests is the destination set carried by the copy.
	Dests []int
	// Perimeter reports whether the copy is in perimeter mode.
	Perimeter bool
}

// TraceFunc observes every accepted transmission.
type TraceFunc func(TraceEvent)

// Engine runs multicast tasks over a network with a given radio model:
// one at a time via RunTask (the experiment harness's mode) or many
// overlapping in virtual time via RunScript. Transmissions from one node
// serialize — a node's radio is half-duplex and sends one frame at a time —
// which is what makes concurrent-load latency meaningful.
type Engine struct {
	net      *network.Network
	radio    RadioParams
	maxHops  int
	views    view.Provider
	tracer   TraceFunc
	perNode  bool
	dynFrame bool

	faults FaultPlan
	churn  ChurnPlan
	arq    ARQConfig // normalized against radio when set
	runSeq int64     // runs since SetFaults, for per-run fault seed derivation

	// sharding sizes the kernel's worker pool (zero = the default).
	sharding ShardConfig
	// lanes are the kernel's per-tile lanes, reset and reused by every run.
	lanes []*lane
	// busyUntil is each node's radio-free time, cleared and reused by every
	// run.
	busyUntil []float64
	// now is the virtual time of the last event the latest run executed.
	now float64
}

// NewEngine builds an engine over net. maxHops is the per-packet hop budget
// (the paper uses 100 in §5.4); 0 disables the budget. Negative budgets are
// a programming error and panic rather than silently meaning "unlimited".
func NewEngine(net *network.Network, radio RadioParams, maxHops int) *Engine {
	if maxHops < 0 {
		panic(fmt.Sprintf("sim: negative hop budget %d (use 0 for unlimited)", maxHops))
	}
	return &Engine{net: net, radio: radio, maxHops: maxHops}
}

// SetFaults installs a fault-injection plan for subsequent runs. The zero
// plan restores the ideal collision-free MAC exactly (a strict no-op).
func (e *Engine) SetFaults(p FaultPlan) error {
	if err := p.Validate(e.net.Len()); err != nil {
		return err
	}
	e.faults = p
	e.runSeq = 0
	return nil
}

// Faults returns the installed fault plan.
func (e *Engine) Faults() FaultPlan { return e.faults }

// SetARQ configures hop-by-hop acknowledged delivery for subsequent runs.
// The zero config disables ARQ.
func (e *Engine) SetARQ(a ARQConfig) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if a.Enabled {
		a = a.normalized(e.radio)
	}
	e.arq = a
	return nil
}

// ARQ returns the installed (normalized) ARQ configuration.
func (e *Engine) ARQ() ARQConfig { return e.arq }

// SetViews installs the per-node view provider handed to forwarding
// decisions. Unset, the engine defaults to the ideal oracle over its own
// network without a perimeter substrate — enough for protocols that never
// enter perimeter mode; anything using face traversal needs a provider
// built with a planar graph.
func (e *Engine) SetViews(p view.Provider) { e.views = p }

// Radio returns the radio parameters.
func (e *Engine) Radio() RadioParams { return e.radio }

// MaxHops returns the per-packet hop budget (0 = unlimited).
func (e *Engine) MaxHops() int { return e.maxHops }

// Now returns the virtual time of the last event the latest run executed.
func (e *Engine) Now() float64 { return e.now }

// SetTracer installs (or clears, with nil) a transmission observer. Tracing
// does not affect simulation behavior. Each tile buffers its events; the
// tracer is called from the goroutine running RunScript, at window barriers
// and before the run returns, in kernel (time, tile, seq) order — so a
// trace is identical for every worker count.
func (e *Engine) SetTracer(fn TraceFunc) { e.tracer = fn }

// SetEnergyLedger toggles per-node energy accounting (TaskMetrics.
// EnergyByNode). It costs one map update per listener per transmission, so
// it is off by default; the lifetime experiment turns it on.
func (e *Engine) SetEnergyLedger(on bool) { e.perNode = on }

// SetDynamicFrames switches airtime and energy from the fixed Table 1
// message size to each packet's actual on-air size: the application payload
// (RadioParams.MessageBytes) plus the wire-format header carrying the
// destination locations and perimeter state. The paper charges a flat
// 128 B per transmission; this mode is the A-5 ablation quantifying what
// that simplification hides.
func (e *Engine) SetDynamicFrames(on bool) { e.dynFrame = on }

// frameBytes returns the accounted on-air size of a packet.
func (e *Engine) frameBytes(pkt *Packet) int {
	if !e.dynFrame {
		return e.radio.MessageBytes
	}
	return e.radio.MessageBytes + wire.HeaderSize(len(pkt.Dests), pkt.Perimeter)
}

// CheckSend is the send rule every execution mode applies before a copy
// goes on the air: the transmission from → to, which would give the copy
// hop count hops, must address an in-range neighbor other than the sender
// (else ReasonInvalidSend, a protocol bug) and stay within the per-packet
// hop budget (else ReasonHopBudget; budget 0 is unlimited). ok reports
// whether the send may proceed.
func CheckSend(nw *network.Network, from, to, hops, budget int) (reason DropReason, ok bool) {
	if to < 0 || to >= nw.Len() || from == to || !nw.InRange(from, to) {
		return ReasonInvalidSend, false
	}
	if budget > 0 && hops > budget {
		return ReasonHopBudget, false
	}
	return 0, true
}

// StripAt is the arrival rule every execution mode applies when a copy
// reaches node: node is removed from the destination list, with its header
// location, and the number of entries removed is returned — the first is a
// delivery unless an earlier copy delivered node already, every further one
// a duplicate.
func (p *Packet) StripAt(node int) int {
	kept := p.Dests[:0]
	keptL := p.Locs[:0]
	for i, d := range p.Dests {
		if d == node {
			continue
		}
		kept = append(kept, d)
		keptL = append(keptL, p.Locs[i])
	}
	n := len(p.Dests) - len(kept)
	p.Dests = kept
	p.Locs = keptL
	return n
}
