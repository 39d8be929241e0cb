package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"gmp/internal/view"
)

// This file is the simulation kernel: the only code that applies forwarding
// decisions. Every run has one lane — an event queue over the nodes of one
// spatial tile — per tile, advanced in conservative time windows so one
// large network can saturate many cores. DESIGN.md §2.4 derives the window
// and the determinism argument; the short version:
//
//   - The network's coarse tile layer (network.Tiles) partitions nodes by
//     geometry alone, never by worker count. Every event is keyed
//     (time, originating tile, originating sequence number) — a strict total
//     order assigned deterministically, because each tile's execution is
//     single-threaded and deterministic.
//   - Shards are workers, not partitions: a round hands tiles to Shards
//     goroutines exactly as the campaign runner hands cells to workers, so
//     the worker count changes wall-clock time and nothing else.
//   - Each round advances every tile from the global minimum next-event time
//     T to the horizon T+Window. Any event one tile schedules on another —
//     a frame crossing a tile border, an ARQ retry or give-up back at the
//     sender — lies at least Lookahead (minimum frame airtime, and the ARQ
//     timeout when ARQ is on) in the future. With Window ≤ Lookahead such
//     posts always land at or beyond the horizon, so nothing a tile does in
//     a round can affect another tile within the same round: tiles are
//     embarrassingly parallel between barriers.
//   - Cross-tile posts go to the target tile's inbox (a mutex-guarded
//     slice) and are merged into its queue at the next barrier; the heap
//     orders them by their keys, so arrival order — the only thing that
//     varies with scheduling — is irrelevant.
//   - All mutable state is tile-local (busy radios, crash flags, RNG
//     streams, dead-link blacklists, metric partials, trace buffers) or
//     coordinator-owned and touched only at barriers (churn, the tracer).
//     Partials merge in tile index order, so even float accumulation order
//     is fixed, and buffered trace events reach the tracer in key order.

// ShardConfig sizes the kernel's worker pool on an Engine. The zero value —
// the default — runs 1 worker with Window = Lookahead(radio, arq); any
// non-zero configuration is validated strictly — there are no silent
// fallbacks for out-of-range values. The output is byte-identical for every
// configuration.
type ShardConfig struct {
	// Shards is the number of worker goroutines advancing tiles. Must be
	// ≥ 1. Only wall-clock time changes with it.
	Shards int
	// Window is the conservative synchronization window in virtual seconds:
	// each round advances every tile at most Window past the global minimum
	// next-event time. Must be positive, finite, and at most the run's
	// Lookahead — derive it with Lookahead(radio, arq). Larger windows mean
	// fewer barriers; Lookahead itself is optimal.
	Window float64
}

// Lookahead returns the conservative-sync lookahead of a radio/ARQ
// configuration: the minimum virtual-time distance between an event in one
// tile and the earliest event it can cause in another. Frames take at least
// the fixed-size airtime to cross a tile border, and ARQ's sender-side
// timers fire no sooner than the (normalized) ARQ timeout.
func Lookahead(radio RadioParams, arq ARQConfig) float64 {
	la := radio.TxTime()
	if arq.Enabled {
		n := arq.normalized(radio)
		if n.Timeout < la {
			la = n.Timeout
		}
	}
	return la
}

// SetSharding installs (or, with the zero config, restores the default)
// worker pool for subsequent runs. Non-positive shard counts and
// non-positive or non-finite windows are rejected; a window exceeding the
// run's lookahead is a programming error detected at run time.
func (e *Engine) SetSharding(c ShardConfig) error {
	if c == (ShardConfig{}) {
		e.sharding = c
		return nil
	}
	if c.Shards < 1 {
		return fmt.Errorf("sim: ShardConfig.Shards %d, must be at least 1", c.Shards)
	}
	if !(c.Window > 0) || math.IsInf(c.Window, 0) {
		return fmt.Errorf("sim: ShardConfig.Window %v, must be a positive finite duration (derive it with Lookahead)", c.Window)
	}
	e.sharding = c
	return nil
}

// Sharding returns the installed shard configuration (zero = the default).
func (e *Engine) Sharding() ShardConfig { return e.sharding }

// laneSession is one lane's metric partial for one session: the counters
// almost every (tile, session) pair a script reaches touches, in 72 bytes
// that hold no pointer, so the collector never scans the slab. What only
// some pairs need — drop counters, deferred drops, bans, the per-node energy
// ledger — is a laneRare the pair takes on first use, so a fault-free pair
// has none. Deliveries are records in the lane (see delivery).
type laneSession struct {
	// si is the session's index in the script: merge adds the partial there.
	si int32
	// deliveries heads the session's chain of delivery records in the lane:
	// an index into lane.deliv plus one, 0 for none.
	deliveries int32
	// rare is the pair's entry in lane.rare plus one, 0 for none.
	rare int32

	transmissions, retransmissions, acks   int
	linkFailures, invalidSends, duplicates int
	energyJ                                float64
}

// laneRare is the part of a lane's session share that only drops, faults and
// the per-node energy ledger reach. The lane keeps its entries, maps and
// all, across runs.
type laneRare struct {
	drops, destDrops [NumDropReasons]int
	// pending records each destination's first drop observed in this lane,
	// with its lane time so merge can settle the globally-first one
	// deterministically (TaskMetrics.Dropped; the deferred per-destination
	// billing of redundant-copy sessions).
	pending map[int]pendingDrop
	// banned holds the session's dead-link blacklist: sender node → set of
	// neighbors ARQ gave up on from there. All later decisions at that node
	// (greedy, grouping, perimeter) exclude the dead neighbor via a masking
	// view.
	banned map[int]map[int]bool
	// masks caches the masking views, one per banned-at node, invalidated
	// whenever that node's ban set grows.
	masks map[int]*view.Masked
	// energyByNode is the lane's share of TaskMetrics.EnergyByNode.
	energyByNode map[int]float64
}

// reset empties rs for a new pair, keeping the maps' storage.
func (rs *laneRare) reset() {
	rs.drops, rs.destDrops = [NumDropReasons]int{}, [NumDropReasons]int{}
	clear(rs.pending)
	clear(rs.banned)
	clear(rs.masks)
	clear(rs.energyByNode)
}

// ban adds (from → to) to the session's dead-link blacklist.
func (rs *laneRare) ban(from, to int) {
	if rs.banned == nil {
		rs.banned = make(map[int]map[int]bool)
	}
	b := rs.banned[from]
	if b == nil {
		b = make(map[int]bool)
		rs.banned[from] = b
	}
	b[to] = true
	delete(rs.masks, from)
}

// pendingDrop is one deferred per-destination drop charge.
type pendingDrop struct {
	reason DropReason
	at     float64
}

// delivery is a session's first arrival at one of its destinations, kept in
// the destination's lane, where every delivery of that node happens.
type delivery struct {
	session, node, hops int32
	// next is the session's previous record in the lane: an index into
	// lane.deliv plus one, 0 at the end of the chain.
	next int32
	at   float64
}

// tracedEvent is one buffered trace event under the key of the event whose
// dispatch emitted it.
type tracedEvent struct {
	key event
	ev  TraceEvent
}

// sessChunk is the number of session shares in one chunk of a lane's slab.
const sessChunk = 16

// lane is one tile's event queue and the state of the nodes it owns. During
// a round a lane is advanced by exactly one worker goroutine; between rounds
// only the coordinator touches it. The Engine owns its lanes and resets them
// at the start of every run.
type lane struct {
	id  int
	now float64
	seq int64
	q   eventHeap
	// key is the (time, tile, seq) key of the event being dispatched.
	key event

	mu    sync.Mutex
	inbox []event

	rng *rand.Rand // the tile's fault stream; nil until a plan is active
	// chunks is the slab of the lane's session shares: the first used of
	// them, in the order the lane first touched their sessions (see
	// session). Most sessions of a large script never reach most tiles, so
	// the slab grows with the pairs reached. A chunk never moves, so a
	// *laneSession stays valid for the run; the lane keeps its chunks across
	// runs.
	chunks []*[sessChunk]laneSession
	used   int
	// slot maps a session index to its share's slab position plus one, 0
	// while the lane has not touched the session in this run.
	slot []int32
	// rare holds the run's rare states, in the order their pairs took them.
	rare []laneRare
	// deliv holds the run's delivery records, chained per session.
	deliv []delivery
	// uncovered is billUncovered's scratch.
	uncovered []int
	// trace buffers the tile's trace events until the next barrier.
	trace []tracedEvent
	// scratch is the decision arena lent to every node this lane decides
	// at. The lane runs one decision at a time, and the lane is reused
	// across runs, so the arena stays warm. It is an allocation of its own,
	// not part of the lane: a provider keeps the arena it was last lent, so
	// a provider that outlives the engine pins only the arenas, never the
	// lane's sessions and queues.
	scratch *view.Scratch
}

// reset prepares ln for a run of the given number of sessions. With an
// active fault plan the tile's fault stream is re-seeded from seed.
func (ln *lane) reset(sessions int, faults bool, seed int64) {
	ln.now, ln.seq = 0, 0
	ln.q = ln.q[:0]
	ln.inbox = ln.inbox[:0]
	ln.trace = ln.trace[:0]
	if faults {
		if ln.rng == nil {
			ln.rng = rand.New(rand.NewSource(seed))
		} else {
			ln.rng.Seed(seed)
		}
	}
	for s := 0; s < ln.used; s++ {
		ln.slot[ln.share(s).si] = 0
	}
	ln.used = 0
	ln.rare = ln.rare[:0]
	ln.deliv = ln.deliv[:0]
	if cap(ln.slot) < sessions {
		ln.slot = make([]int32, sessions)
	} else {
		ln.slot = ln.slot[:sessions]
	}
}

// share returns the session share at slab position s.
func (ln *lane) share(s int) *laneSession {
	return &ln.chunks[s/sessChunk][s%sessChunk]
}

// lookup returns the lane's state for session si, or nil when the lane has
// not touched the session in this run.
func (ln *lane) lookup(si int) *laneSession {
	if s := ln.slot[si]; s > 0 {
		return ln.share(int(s) - 1)
	}
	return nil
}

// session returns the lane's state for session si, taking the next slab
// position, zeroed, on the lane's first touch of the session in this run.
func (ln *lane) session(si int) *laneSession {
	if ls := ln.lookup(si); ls != nil {
		return ls
	}
	if ln.used == len(ln.chunks)*sessChunk {
		ln.chunks = append(ln.chunks, new([sessChunk]laneSession))
	}
	ls := ln.share(ln.used)
	*ls = laneSession{si: int32(si)}
	ln.used++
	ln.slot[si] = int32(ln.used)
	return ls
}

// rareState returns ls's rare state, taking the lane's next entry, emptied,
// on first use. The pointer is valid until the lane's next take.
func (ln *lane) rareState(ls *laneSession) *laneRare {
	if ls.rare == 0 {
		n := len(ln.rare)
		if n < cap(ln.rare) {
			ln.rare = ln.rare[:n+1]
			ln.rare[n].reset()
		} else {
			ln.rare = append(ln.rare, laneRare{})
		}
		ls.rare = int32(n + 1)
	}
	return &ln.rare[ls.rare-1]
}

// delivered reports whether ls's session has a delivery record at node in
// this lane.
func (ln *lane) delivered(ls *laneSession, node int) bool {
	for i := ls.deliveries; i > 0; i = ln.deliv[i-1].next {
		if int(ln.deliv[i-1].node) == node {
			return true
		}
	}
	return false
}

// schedule enqueues an event on ln's own queue, stamping the lane's
// (tile, seq) origin key and clamping a past time to the lane clock. Only
// the lane's current worker (or the coordinator, between rounds) may call
// it.
func (ln *lane) schedule(ev event) {
	if ev.time < ln.now {
		ev.time = ln.now
	}
	ev.tile = int32(ln.id)
	ev.seq = ln.seq
	ln.seq++
	ln.q.push(ev)
}

// post delivers an event to this lane's inbox. Called by other lanes during
// a round; the inbox is merged into the queue at the next barrier, where the
// heap's key order erases any trace of arrival order.
func (ln *lane) post(ev event) {
	ln.mu.Lock()
	ln.inbox = append(ln.inbox, ev)
	ln.mu.Unlock()
}

// kernel is one RunScript execution.
type kernel struct {
	e         *Engine
	window    float64
	workers   int
	lanes     []*lane
	busyUntil []float64
	dead      []bool // nil when the plan schedules no crashes
	sess      []kernelSession
	// base holds each session's result: prologue deliveries at the source
	// and churn counters; lane partials are merged into it, in lane order,
	// at the end of the run.
	base []SessionMetrics
}

// kernelSession is one session's run-wide state.
type kernelSession struct {
	handler Handler
	// redundant marks a RedundantHandler session, whose per-destination drop
	// billing is deferred to settlement.
	redundant bool
	// churn is nil when the installed plan schedules no membership change
	// for the session.
	churn *sessionChurn
	// firstDrops is merge's fold of the lanes' deferred drops: each
	// destination's globally-first one, at the earliest lane time, ties
	// going to the lower lane (a later lane replaces an entry only on a
	// strictly earlier time). Nil while no lane dropped a copy.
	firstDrops map[int]pendingDrop
}

// shardTileSeedStride separates per-tile fault streams; like the experiment
// package's seed strides it is an arbitrary frozen prime.
const shardTileSeedStride = 15485863

// RunTask simulates one multicast task from src to dests using handler h
// and returns its metrics. Destinations equal to src count as delivered at
// hop 0.
func (e *Engine) RunTask(h Handler, src int, dests []int) TaskMetrics {
	res := e.RunScript([]Session{{Handler: h, Src: src, Dests: dests}})
	return res[0].TaskMetrics
}

// RunScript simulates overlapping multicast sessions on the shared medium
// and returns per-session metrics in input order.
func (e *Engine) RunScript(sessions []Session) []SessionMetrics {
	la := Lookahead(e.radio, e.arq)
	if la <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v (radio airtime must be positive)", la))
	}
	if len(e.busyUntil) == e.net.Len() {
		clear(e.busyUntil)
	} else {
		e.busyUntil = make([]float64, e.net.Len())
	}
	r := &kernel{
		e:         e,
		window:    la,
		workers:   1,
		busyUntil: e.busyUntil,
		sess:      make([]kernelSession, len(sessions)),
		base:      make([]SessionMetrics, len(sessions)),
	}
	if e.sharding != (ShardConfig{}) {
		if e.sharding.Window > la {
			panic(fmt.Sprintf("sim: ShardConfig.Window %v exceeds the run's lookahead %v", e.sharding.Window, la))
		}
		r.window, r.workers = e.sharding.Window, e.sharding.Shards
	}
	if e.views == nil {
		e.views = view.NewOracle(e.net, nil)
	}

	// Fault randomness is deterministic but advances across runs: the Nth
	// run after SetFaults draws from seed(plan)⊕f(N), so successive tasks
	// in a batch see independent loss patterns while the whole batch stays
	// a pure function of (network, plan, run order). Re-install the plan to
	// rewind the stream. Each tile draws from its own strided stream.
	if e.lanes == nil {
		e.lanes = make([]*lane, e.net.Tiles())
		for i := range e.lanes {
			e.lanes[i] = &lane{id: i, scratch: new(view.Scratch)}
		}
	}
	r.lanes = e.lanes
	for i, ln := range r.lanes {
		seed := e.faults.seed() + e.runSeq*6364136223846793005 + int64(i+1)*shardTileSeedStride
		ln.reset(len(sessions), e.faults.Active(), seed)
	}
	e.runSeq++

	if len(e.faults.Crashes) > 0 {
		r.dead = make([]bool, e.net.Len())
		for _, c := range e.faults.Crashes {
			ln := r.laneOf(c.Node)
			ln.schedule(event{time: c.At, kind: evCrash, from: c.Node})
			if c.RecoverAt > c.At {
				ln.schedule(event{time: c.RecoverAt, kind: evRecover, from: c.Node})
			}
		}
	}

	if e.churn.hasEvents() {
		for _, m := range append(append([]Membership(nil), e.churn.Joins...), e.churn.Leaves...) {
			if m.Session >= len(sessions) {
				panic(fmt.Sprintf("sim: churn event for session %d, script has %d", m.Session, len(sessions)))
			}
		}
	}

	for i, s := range sessions {
		r.sess[i] = kernelSession{handler: s.Handler, redundant: redundantCopies(s.Handler)}
		if e.churn.hasEvents() {
			r.sess[i].churn = e.churn.newSessionChurn(i, s.Src, s.Dests)
		}
		r.base[i] = SessionMetrics{
			TaskMetrics: TaskMetrics{
				Delivered: make(map[int]int, len(s.Dests)),
				DestCount: len(s.Dests),
			},
			StartTime:   s.Start,
			DeliveredAt: make(map[int]float64, len(s.Dests)),
		}
		if e.perNode {
			r.base[i].EnergyByNode = make(map[int]float64)
		}
		remaining := make([]int, 0, len(s.Dests))
		for _, d := range s.Dests {
			if d == s.Src {
				r.base[i].Delivered[d] = 0
				r.base[i].DeliveredAt[d] = s.Start
				continue
			}
			remaining = append(remaining, d)
		}
		sort.Ints(remaining)
		if len(remaining) > 0 {
			pkt := newPacket(&Header{Dests: remaining, Anchor: -1}, 0, i)
			for _, d := range pkt.Dests {
				pkt.Locs = append(pkt.Locs, e.net.Pos(d))
			}
			r.laneOf(s.Src).schedule(event{time: s.Start, kind: evStart, from: s.Src, pkt: pkt})
		}
	}

	r.runWindows()
	e.now = 0
	for _, ln := range r.lanes {
		e.now = math.Max(e.now, ln.now)
	}
	for si := range r.sess {
		if sc := r.sess[si].churn; sc != nil {
			sc.finish(&r.base[si])
		}
	}
	return r.merge()
}

// laneOf returns the lane owning node.
func (r *kernel) laneOf(node int) *lane {
	return r.lanes[r.e.net.Tile(node)]
}

// enqueue routes an event to the lane owning node: pushed directly when
// that is the current lane, posted to its inbox otherwise. The origin key
// is the current lane's in both cases.
func (r *kernel) enqueue(from *lane, node int, ev event) {
	target := r.laneOf(node)
	if target == from {
		from.schedule(ev)
		return
	}
	ev.tile = int32(from.id)
	ev.seq = from.seq
	from.seq++
	target.post(ev)
}

// runWindows is the kernel's conservative-window main loop.
func (r *kernel) runWindows() {
	workers := min(r.workers, len(r.lanes))
	for {
		// Barrier phase: merge inboxes, find the global floor, flush the
		// trace, apply churn.
		minTime := math.Inf(1)
		for _, ln := range r.lanes {
			// No lock needed: all workers have joined; this coordinator
			// read happens after their final inbox appends.
			for _, ev := range ln.inbox {
				ln.q.push(ev)
			}
			ln.inbox = ln.inbox[:0]
			if len(ln.q) > 0 && ln.q[0].time < minTime {
				minTime = ln.q[0].time
			}
		}
		if r.e.tracer != nil {
			r.flushTrace()
		}
		if math.IsInf(minTime, 1) {
			return
		}
		if r.e.churn.hasEvents() {
			r.churnBarrier(minTime)
		}
		horizon := minTime + r.window

		// Parallel phase: workers pull tiles exactly as campaign workers
		// pull cells; each lane advances to the horizon single-threaded.
		if workers <= 1 {
			for _, ln := range r.lanes {
				r.advance(ln, horizon)
			}
			continue
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(r.lanes) {
						return
					}
					r.advance(r.lanes[i], horizon)
				}
			}()
		}
		wg.Wait()
	}
}

// flushTrace hands the lanes' buffered trace events to the tracer in the
// kernel order of the events that emitted them. The sort is stable, so the
// several transmissions of one event keep their emission order.
func (r *kernel) flushTrace() {
	var buf []tracedEvent
	for _, ln := range r.lanes {
		buf = append(buf, ln.trace...)
		ln.trace = ln.trace[:0]
	}
	sort.SliceStable(buf, func(a, b int) bool { return buf[a].key.before(&buf[b].key) })
	for _, t := range buf {
		r.e.tracer(t.ev)
	}
}

// advance executes ln's events strictly before horizon, in key order.
func (r *kernel) advance(ln *lane, horizon float64) {
	for len(ln.q) > 0 && ln.q[0].time < horizon {
		ev := ln.q.pop()
		if ev.time > ln.now {
			ln.now = ev.time
		}
		ln.key = event{time: ev.time, tile: ev.tile, seq: ev.seq}
		r.dispatch(ln, ev)
	}
}

// dispatch executes one event in lane context. Every event but a crash or
// a recovery carries a packet, which it either hands on to a follow-up
// event (a frame on the air, a queued retry or give-up) or consumes; a
// consumed packet returns to the pool once the event has finished — its
// decision's forwards applied, each copied into a packet of its own.
func (r *kernel) dispatch(ln *lane, ev event) {
	pkt := ev.pkt
	carried := false
	switch {
	case ev.kind == evCrash:
		r.dead[ev.from] = true
		return
	case ev.kind == evRecover:
		r.dead[ev.from] = false
		return
	case ev.kind == evReceive:
		carried = r.receive(ln, ev)
	case len(pkt.Dests) == 0:
		// A barrier leave retired every destination while the copy was
		// queued; the retirements are already billed.
	case ev.kind == evStart:
		r.act(ln, ev.from, pkt, r.sess[pkt.Session].handler.Start(r.viewAt(ln, pkt.Session, ev.from), pkt), ReasonStranded)
	case ev.kind == evRetransmit:
		carried = r.transmit(ln, ev.from, ev.to, pkt, ev.attempt)
	default: // evGiveUp
		r.giveUp(ln, ev.from, ev.to, pkt)
	}
	if !carried {
		freePacket(pkt)
	}
}

// viewAt returns node's view for session sess. When the session's
// dead-link blacklist bans neighbors at this node, the base view is wrapped
// in a masking decorator so every decision — greedy, grouping, perimeter —
// excludes them. Sessions without bans (every fault-free run) get the
// unwrapped base view, keeping the zero-fault path a strict no-op. A node's
// bans live in its own lane, so the decorator cache is lane-private. Either
// way the decision runs on the lane's arena.
func (r *kernel) viewAt(ln *lane, sess, node int) view.NodeView {
	base := r.e.views.At(node, ln.scratch)
	ls := ln.lookup(sess)
	if ls == nil || ls.rare == 0 {
		return base
	}
	rs := &ln.rare[ls.rare-1]
	b := rs.banned[node]
	if len(b) == 0 {
		return base
	}
	mv, ok := rs.masks[node]
	if !ok {
		mv = view.NewMasked(base, b)
		if rs.masks == nil {
			rs.masks = make(map[int]*view.Masked)
		}
		rs.masks[node] = mv
	}
	return mv
}

// kill records a packet copy's death, billed to the packet's own session.
func (r *kernel) kill(ln *lane, pkt *Packet, reason DropReason) {
	r.drop(ln, pkt.Session, pkt.Dests, reason)
}

// drop records one copy-level death in session si plus the destinations
// still aboard, both indexed by reason. Each destination's first drop is
// stamped with the lane clock so merge can settle the globally-first one.
// Ordinary sessions also bill the destinations immediately; redundant-copy
// sessions bill them only at settlement — another live copy may still
// deliver the destination.
func (r *kernel) drop(ln *lane, si int, dests []int, reason DropReason) {
	rs := ln.rareState(ln.session(si))
	rs.drops[reason]++
	if !r.sess[si].redundant {
		rs.destDrops[reason] += len(dests)
	}
	if rs.pending == nil {
		rs.pending = make(map[int]pendingDrop)
	}
	for _, d := range dests {
		if _, seen := rs.pending[d]; !seen {
			rs.pending[d] = pendingDrop{reason: reason, at: ln.now}
		}
	}
}

// act applies a decision made at node for pkt. A decision that returns no
// forwards kills the copy, billed under none: ReasonStranded for an
// arrival's decision, ReasonARQExhausted for a give-up's.
func (r *kernel) act(ln *lane, node int, pkt *Packet, fwds []Forward, none DropReason) {
	if len(fwds) == 0 {
		r.kill(ln, pkt, none)
		return
	}
	r.billUncovered(ln, pkt, fwds)
	r.apply(ln, node, pkt, fwds)
}

// billUncovered bills destinations aboard pkt that no forward in fwds
// carries. Correct partition-discipline cores hand every remaining
// destination to exactly one forward, but a spliced-in join can fall outside
// state a core froze at Start (SMT's embedded source route is the canonical
// case) — the copy forwards on without the newcomer, which would otherwise
// leak out of the conservation accounting. Billed as ReasonStranded: the
// protocol had no plan for the destination. Only churn-affected sessions run
// this scan, so churn-free runs stay byte-identical.
func (r *kernel) billUncovered(ln *lane, pkt *Packet, fwds []Forward) {
	if r.sess[pkt.Session].churn == nil {
		return
	}
	ln.uncovered = ln.uncovered[:0]
	for _, d := range pkt.Dests {
		covered := false
	scan:
		for i := range fwds {
			for _, fd := range fwds[i].Dests {
				if fd == d {
					covered = true
					break scan
				}
			}
		}
		if !covered {
			ln.uncovered = append(ln.uncovered, d)
		}
	}
	if len(ln.uncovered) > 0 {
		r.drop(ln, pkt.Session, ln.uncovered, ReasonStranded)
	}
}

// apply executes the forward list of a decision made at node `from` for
// pkt, in order: transmissions via send, DropCopy/DropWatchdog entries as
// kills. This is the only path from a protocol decision to the air —
// handlers return data, the kernel acts on it. Every copy belongs to pkt's
// session, so handlers never stamp session IDs and no kill can be billed
// to another session.
func (r *kernel) apply(ln *lane, from int, pkt *Packet, fwds []Forward) {
	for i := range fwds {
		f := &fwds[i]
		if reason, ok := SentinelReason(f.To); ok {
			r.drop(ln, pkt.Session, f.Dests, reason)
		} else {
			r.send(ln, from, pkt, f)
		}
	}
}

// send transmits a copy of forward f, decided for pkt, from node `from` to
// its neighbor f.To: the kernel copies f's header into a packet of its own,
// one hop further than pkt, in pkt's session. A send that CheckSend refuses
// dies before the air; an invalid send also counts in InvalidSends (a
// protocol bug; tests assert the counter stays zero).
func (r *kernel) send(ln *lane, from int, pkt *Packet, f *Forward) {
	hops := pkt.Hops + 1
	if reason, ok := CheckSend(r.e.net, from, f.To, hops, r.e.maxHops); !ok {
		if reason == ReasonInvalidSend {
			ln.session(pkt.Session).invalidSends++
		}
		r.drop(ln, pkt.Session, f.Dests, reason)
		return
	}
	r.transmit(ln, from, f.To, newPacket(&f.Header, hops, pkt.Session), 0)
}

// transmit puts one data frame on the air (attempt 0 is the original send,
// higher attempts are ARQ retransmissions) and reports whether it did. It
// charges airtime and energy, serializes on the sender's half-duplex radio,
// draws the frame's fault fate, and schedules the reception, which carries
// pkt on. It always runs in the sender's lane, so the radio state and the
// fault stream are lane-local.
func (r *kernel) transmit(ln *lane, from, to int, pkt *Packet, attempt int) bool {
	e := r.e
	if r.isDead(from) {
		// The sender's radio died before this (re)transmission went out.
		r.kill(ln, pkt, ReasonSenderCrashed)
		return false
	}
	ls := ln.session(pkt.Session)
	txStart, airtime := r.air(ln, ls, from, e.frameBytes(pkt))
	ls.transmissions++
	if attempt > 0 {
		ls.retransmissions++
	}
	if e.tracer != nil {
		ln.trace = append(ln.trace, tracedEvent{key: ln.key, ev: TraceEvent{
			Time:      txStart,
			From:      from,
			To:        to,
			Hops:      pkt.Hops,
			Dests:     append([]int(nil), pkt.Dests...),
			Perimeter: pkt.Perimeter,
		}})
	}
	// The frame's on-air fate is drawn at send time (deterministically, in
	// kernel order); whether the receiver is alive is checked at arrival
	// time, so a crash mid-flight loses the frame. The zero fault plan never
	// touches an RNG.
	lost := false
	if ln.rng != nil {
		if p := e.faults.lossProb(e.net.Dist(from, to), e.net.Range()); p > 0 {
			lost = ln.rng.Float64() < p
		}
	}
	if !lost && e.churn.Motion != nil && !e.motionInRange(from, to, txStart) {
		// The nodes' true positions have drifted out of radio range: the
		// frame is lost on the air regardless of what the routing state
		// believes. ARQ retries re-sample the stream — a node that swings
		// back into range can still be reached.
		lost = true
	}
	r.enqueue(ln, to, event{
		time: txStart + airtime, kind: evReceive,
		from: from, to: to, attempt: attempt, lost: lost, pkt: pkt,
	})
	return true
}

// air puts one frame of the given size on node's half-duplex radio — it
// starts once the radio's previous frame is out — and charges its energy to
// ls: the transmitter, plus every listener when the per-node ledger is on.
// Returns the frame's start time and airtime.
func (r *kernel) air(ln *lane, ls *laneSession, node, bytes int) (start, airtime float64) {
	e := r.e
	airtime = e.radio.TxTimeBytes(bytes)
	start = ln.now
	if r.busyUntil[node] > start {
		start = r.busyUntil[node]
	}
	r.busyUntil[node] = start + airtime
	ls.energyJ += e.radio.TxEnergyBytes(bytes, e.net.Degree(node))
	if e.perNode {
		rs := ln.rareState(ls)
		if rs.energyByNode == nil {
			rs.energyByNode = make(map[int]float64)
		}
		rs.energyByNode[node] += e.radio.TxPowerW * airtime
		for _, l := range e.net.Neighbors(node) {
			rs.energyByNode[int(l)] += e.radio.RxPowerW * airtime
		}
	}
	return start, airtime
}

// isDead reports whether node's radio is crashed at the current time.
func (r *kernel) isDead(node int) bool { return r.dead != nil && r.dead[node] }

// receive resolves one frame's fate at its arrival time, in the receiver's
// lane, and reports whether a follow-up event carries the copy on: deliver
// (plus ACK under ARQ), schedule a retransmission, or schedule the give-up:
// an event in the *sender's* lane one backed-off timeout later — physically,
// the sender's last timer expiring — because bans and re-route decisions are
// sender-tile state the receiver's tile must not touch directly.
func (r *kernel) receive(ln *lane, ev event) bool {
	e := r.e
	pkt := ev.pkt
	if !ev.lost && !r.isDead(ev.to) {
		if e.arq.Enabled {
			// ACKs are modeled loss-free (see ARQConfig).
			ls := ln.session(pkt.Session)
			r.air(ln, ls, ev.to, e.arq.AckBytes)
			ls.acks++
		}
		r.arrive(ln, ev.to, pkt)
		return false
	}
	if !e.arq.Enabled {
		// Without ARQ the sender never learns; the copy silently dies.
		if ev.lost {
			r.kill(ln, pkt, ReasonLinkLoss)
		} else {
			r.kill(ln, pkt, ReasonCrashedReceiver)
		}
		return false
	}
	rto := e.arq.Timeout * math.Pow(e.arq.Backoff, float64(ev.attempt))
	next := event{time: ln.now + rto, kind: evGiveUp, from: ev.from, to: ev.to, pkt: pkt}
	if ev.attempt < e.arq.MaxRetries {
		next.kind, next.attempt = evRetransmit, ev.attempt+1
	}
	r.enqueue(ln, ev.from, next)
	return true
}

// giveUp executes ARQ exhaustion on the link from→to: count the link
// failure, ban the link, offer the copy to the NackHandler — whose view
// already masks the dead neighbor — and bill it if no re-route salvages it.
func (r *kernel) giveUp(ln *lane, from, to int, pkt *Packet) {
	ls := ln.session(pkt.Session)
	ls.linkFailures++
	ln.rareState(ls).ban(from, to)
	var fwds []Forward
	if nh, ok := r.sess[pkt.Session].handler.(NackHandler); ok {
		fwds = nh.Nack(r.viewAt(ln, pkt.Session, from), to, pkt)
	}
	r.act(ln, from, pkt, fwds, ReasonARQExhausted)
}

// arrive records deliveries at the receiving node, strips it from the
// destination list, and asks the protocol for the next decision if work
// remains. Crashed nodes receive nothing (receive never calls arrive for
// them). Deliveries of a destination always happen in the destination's own
// lane, so the duplicate check needs only the session's records there.
func (r *kernel) arrive(ln *lane, node int, pkt *Packet) {
	if n := pkt.StripAt(node); n > 0 {
		ls := ln.session(pkt.Session)
		if !ln.delivered(ls, node) {
			ln.deliv = append(ln.deliv, delivery{
				session: int32(pkt.Session), node: int32(node), hops: int32(pkt.Hops),
				next: ls.deliveries, at: ln.now,
			})
			ls.deliveries = int32(len(ln.deliv))
			n--
		}
		ls.duplicates += n
	}
	if len(pkt.Dests) > 0 {
		r.act(ln, node, pkt, r.sess[pkt.Session].handler.Decide(r.viewAt(ln, pkt.Session, node), pkt), ReasonStranded)
	}
}

// merge folds every lane's session partials and delivery records into the
// result, in lane index order — the canonical reduction that makes even
// floating-point accumulation independent of the shard count — and settles
// deferred drops. Within a lane each session has one partial, so the order
// of a lane's partials does not matter.
func (r *kernel) merge() []SessionMetrics {
	for _, ln := range r.lanes {
		for s := 0; s < ln.used; s++ {
			p := ln.share(s)
			o := &r.base[p.si]
			o.Transmissions += p.transmissions
			o.EnergyJ += p.energyJ
			o.DuplicateDeliveries += p.duplicates
			o.Retransmissions += p.retransmissions
			o.LinkFailures += p.linkFailures
			o.Acks += p.acks
			o.InvalidSends += p.invalidSends
			if p.rare == 0 {
				continue
			}
			rs := &ln.rare[p.rare-1]
			for i := range rs.drops {
				o.DropsByReason[i] += rs.drops[i]
				o.DestDropsByReason[i] += rs.destDrops[i]
			}
			if len(rs.energyByNode) > 0 {
				if o.EnergyByNode == nil {
					o.EnergyByNode = make(map[int]float64, len(rs.energyByNode))
				}
				for n, j := range rs.energyByNode {
					o.EnergyByNode[n] += j
				}
			}
			ks := &r.sess[p.si]
			for d, pd := range rs.pending {
				if ks.firstDrops == nil {
					ks.firstDrops = make(map[int]pendingDrop)
				}
				if cur, ok := ks.firstDrops[d]; !ok || pd.at < cur.at {
					ks.firstDrops[d] = pd
				}
			}
		}
		for _, d := range ln.deliv {
			o := &r.base[d.session]
			o.Delivered[int(d.node)] = int(d.hops)
			o.DeliveredAt[int(d.node)] = d.at
		}
	}

	// Settle each destination's globally-first drop against the
	// now-complete delivered set: destinations some copy delivered, or churn
	// retired (billed as ReasonLeft), keep no drop. Redundant-copy sessions
	// bill their deferred per-destination drops here.
	for si := range r.sess {
		ks := &r.sess[si]
		o := &r.base[si]
		for d, pd := range ks.firstDrops {
			if _, ok := o.Delivered[d]; ok {
				continue
			}
			if ks.churn != nil && ks.churn.retired[d] {
				continue
			}
			if o.Dropped == nil {
				o.Dropped = make(map[int]DropReason, len(ks.firstDrops))
			}
			o.Dropped[d] = pd.reason
			if ks.redundant {
				o.DestDropsByReason[pd.reason]++
			}
		}
	}
	return r.base
}
