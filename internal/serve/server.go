package serve

// This file is the daemon core: accept loop, session state machine, bounded
// admission queue, decision workers, and graceful drain. The design target
// is one auditable invariant — conservation of answers:
//
//	admitted == answered(FORWARDS) + answered(ERROR) + shed(queue|deadline|draining)
//
// where "admitted" counts every well-formed DECIDE read off a session. A
// request that cannot be served is *told* so (SHED with a retry-after hint);
// the daemon never silently drops admitted work, even while draining or
// while evicting the requesting client. Reply *delivery* is best-effort —
// an evicted or vanished client cannot receive its answer — but production
// of the answer, and the counter that proves it, always happens.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gmp/internal/wire"
)

// DefaultLambda is the λ the daemon hands FlagLambda protocols (PBM) when
// Config.Lambda is zero.
const DefaultLambda = 0.5

// Config tunes the daemon's hardening envelope. Zero values select the
// defaults below.
type Config struct {
	// Workers is the number of decision workers, each with a private view
	// provider and protocol instances.
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// ShedQueue instead of queueing unboundedly.
	QueueDepth int
	// RequestTimeout is the per-request deadline measured from admission; a
	// request still queued when it expires is shed with ShedDeadline.
	RequestTimeout time.Duration
	// IdleTimeout evicts sessions that send nothing for this long.
	IdleTimeout time.Duration
	// WriteTimeout bounds one reply write; a client that cannot absorb a
	// reply within it is evicted as a slow client.
	WriteTimeout time.Duration
	// SendBuffer bounds each session's outbound reply queue; overflow
	// (a client reading slower than it asks) evicts the session.
	SendBuffer int
	// DrainBudget is how long Drain waits for in-flight work before
	// shedding whatever is left.
	DrainBudget time.Duration
	// RetryAfter is the hint carried in SHED answers.
	RetryAfter time.Duration
	// Lambda is the λ handed to FlagLambda protocols (PBM); zero selects
	// DefaultLambda.
	Lambda float64
	// K is LGK's group-size bound; zero selects the protocol default.
	K int
	// CacheSize bounds the decision memo cache shared by the workers: zero
	// selects DefaultCacheSize, negative disables the cache entirely (every
	// decision recomputes cold — the PR 9 behavior, byte-identical answers).
	CacheSize int
	// RouteBudget is the per-copy hop budget applied to ROUTE requests whose
	// body carries budget 0; zero selects DefaultRouteBudget.
	RouteBudget int
	// RouteMaxSteps caps decisions per route walk; a walk exceeding it is
	// answered ERROR CodeOverrun. Zero selects DefaultRouteMaxSteps.
	RouteMaxSteps int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.SendBuffer <= 0 {
		c.SendBuffer = 64
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	if c.Lambda == 0 {
		c.Lambda = DefaultLambda
	}
	if c.RouteBudget <= 0 {
		c.RouteBudget = DefaultRouteBudget
	}
	if c.RouteMaxSteps <= 0 {
		c.RouteMaxSteps = DefaultRouteMaxSteps
	}
	return c
}

// Stats is a snapshot of the daemon's conservation counters.
type Stats struct {
	// Accepted is the number of connections accepted.
	Accepted int64
	// Sessions is the number of sessions that completed a HELLO.
	Sessions int64
	// Admitted counts every well-formed DECIDE or ROUTE read off a session.
	Admitted int64
	// AnsweredForwards / AnsweredErrors count produced answers by type.
	AnsweredForwards int64
	AnsweredErrors   int64
	// AnsweredRoutes counts ROUTE requests answered with ROUTE_DONE; each
	// also walked RouteHops total transmissions (HOP stream length when the
	// client did not ask for quiet mode).
	AnsweredRoutes int64
	RouteHops      int64
	// CacheHits / CacheMisses / CacheEvictions snapshot the decision memo
	// cache (all zero when Config.CacheSize is negative).
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// Panics counts decisions that panicked (each also counts one
	// AnsweredErrors — the request is answered with CodePanic).
	Panics int64
	// ShedQueue / ShedDeadline / ShedDraining count SHED answers by reason.
	ShedQueue    int64
	ShedDeadline int64
	ShedDraining int64
	// Evicted counts sessions closed for backpressure (send-queue overflow
	// or a write exceeding WriteTimeout).
	Evicted int64
	// Undelivered counts produced answers that could not be handed to their
	// session (evicted or already gone). They still count as answered or
	// shed above: production is what conservation audits.
	Undelivered int64
}

// Answered returns the produced non-shed answers.
func (s Stats) Answered() int64 {
	return s.AnsweredForwards + s.AnsweredErrors + s.AnsweredRoutes
}

// Shed returns the total shed answers.
func (s Stats) Shed() int64 { return s.ShedQueue + s.ShedDeadline + s.ShedDraining }

// CheckConservation verifies the daemon's core invariant: every admitted
// request produced exactly one answer.
func (s Stats) CheckConservation() error {
	if got := s.Answered() + s.Shed(); got != s.Admitted {
		return fmt.Errorf("serve: conservation violated: admitted %d != answered %d + shed %d",
			s.Admitted, s.Answered(), s.Shed())
	}
	return nil
}

// DrainReport is Drain's summary.
type DrainReport struct {
	Stats Stats
	// Flushed is the number of still-queued requests shed at budget expiry
	// (included in Stats.ShedDraining).
	Flushed int
	// Clean reports whether the queue emptied within the budget (Flushed
	// then is 0).
	Clean bool
	// Elapsed is how long the drain took.
	Elapsed time.Duration
}

// Server is one daemon instance over one deployment.
type Server struct {
	cfg Config
	dep *Deployment
	// cache is the decision memo shared by all workers; nil when disabled.
	cache *decisionCache

	queue    chan *request
	draining atomic.Bool

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}

	readers sync.WaitGroup
	workers sync.WaitGroup

	drainOnce sync.Once
	report    DrainReport

	accepted         atomic.Int64
	helloed          atomic.Int64
	admitted         atomic.Int64
	answeredForwards atomic.Int64
	answeredErrors   atomic.Int64
	answeredRoutes   atomic.Int64
	routeHops        atomic.Int64
	panics           atomic.Int64
	shed             [3]atomic.Int64 // index = reason - 1
	evicted          atomic.Int64
	undelivered      atomic.Int64
	inflight         atomic.Int64 // requests popped by a worker, not yet answered
}

// request is one admitted DECIDE or ROUTE. route is non-nil for ROUTE.
type request struct {
	sess     *session
	id       uint64
	body     wire.DecideBody
	route    *wire.RouteBody
	deadline time.Time
}

// New builds a Server over dep. Call Serve to start it.
func New(dep *Deployment, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		dep:      dep,
		queue:    make(chan *request, cfg.QueueDepth),
		sessions: make(map[*session]struct{}),
	}
	if cfg.CacheSize >= 0 {
		s.cache = newDecisionCache(cfg.CacheSize)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Serve accepts sessions on ln until Drain is called (or ln fails). It
// returns after the accept loop ends; Drain owns the full shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.accepted.Add(1)
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.draining.Load() {
			// Raced with Drain: the listener was closing. Refuse politely.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.readers.Add(1)
		go sess.run()
	}
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted:         s.accepted.Load(),
		Sessions:         s.helloed.Load(),
		Admitted:         s.admitted.Load(),
		AnsweredForwards: s.answeredForwards.Load(),
		AnsweredErrors:   s.answeredErrors.Load(),
		AnsweredRoutes:   s.answeredRoutes.Load(),
		RouteHops:        s.routeHops.Load(),
		Panics:           s.panics.Load(),
		ShedQueue:        s.shed[wire.ShedQueue-1].Load(),
		ShedDeadline:     s.shed[wire.ShedDeadline-1].Load(),
		ShedDraining:     s.shed[wire.ShedDraining-1].Load(),
		Evicted:          s.evicted.Load(),
		Undelivered:      s.undelivered.Load(),
	}
	if s.cache != nil {
		st.CacheHits, st.CacheMisses, st.CacheEvictions = s.cache.counters()
	}
	return st
}

// Drain gracefully shuts the daemon down: stop accepting, broadcast DRAIN,
// let workers finish the queue within the budget, shed whatever is left,
// and only then stop the workers. Idempotent; every caller gets the same
// report.
func (s *Server) Drain() DrainReport {
	s.drainOnce.Do(func() {
		start := time.Now()
		s.draining.Store(true)
		s.mu.Lock()
		ln := s.ln
		open := make([]*session, 0, len(s.sessions))
		for sess := range s.sessions {
			open = append(open, sess)
		}
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		drainMsg := wire.Msg{Type: wire.MsgDrain,
			Body: wire.EncodeDrain(wire.DrainBody{BudgetMs: uint32(s.cfg.DrainBudget / time.Millisecond)})}
		for _, sess := range open {
			sess.send(drainMsg)
		}

		// Admission is gated on the draining flag, so from here the queue
		// only shrinks. Wait for it to empty within the budget.
		deadline := time.Now().Add(s.cfg.DrainBudget)
		clean := false
		for time.Now().Before(deadline) {
			if len(s.queue) == 0 && s.inflight.Load() == 0 {
				clean = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}

		// Budget spent (or queue empty): close every session so readers
		// stop, then flush what remains. Readers answer SHED(draining)
		// themselves for anything they admit after the flag flipped, so
		// no request can sneak into the queue behind the flush.
		s.mu.Lock()
		for sess := range s.sessions {
			sess.evict("drain")
		}
		s.mu.Unlock()
		s.readers.Wait()

		flushed := 0
	flush:
		for {
			select {
			case req := <-s.queue:
				s.shedReq(req, wire.ShedDraining)
				flushed++
			default:
				break flush
			}
		}
		close(s.queue) // no producers remain; workers drain and exit
		s.workers.Wait()

		s.report = DrainReport{
			Stats:   s.Stats(),
			Flushed: flushed,
			Clean:   clean && flushed == 0,
			Elapsed: time.Since(start),
		}
	})
	return s.report
}

// worker pops admitted requests and answers each exactly once.
func (s *Server) worker() {
	defer s.workers.Done()
	d := newDecider(s.dep, s.cfg.Lambda, s.cfg.K)
	d.cache = s.cache
	d.routeBudget = s.cfg.RouteBudget
	d.routeMaxSteps = s.cfg.RouteMaxSteps
	for req := range s.queue {
		s.inflight.Add(1)
		if !req.deadline.IsZero() && time.Now().After(req.deadline) {
			s.shedReq(req, wire.ShedDeadline)
			s.inflight.Add(-1)
			continue
		}
		s.answer(req, s.process(d, req))
		s.inflight.Add(-1)
	}
}

// processResult is a produced answer before delivery.
type processResult struct {
	fwds []wire.ForwardReply
	done *wire.RouteDoneBody
	err  *wire.ErrorBody
}

// process runs one decision — or one full route walk — inside panic
// isolation. A panic, whether from a hostile frame or a protocol bug, is
// converted into a CodePanic answer; the daemon and its worker survive.
func (s *Server) process(d *decider, req *request) (res processResult) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			res = processResult{err: &wire.ErrorBody{
				Code: wire.CodePanic, Msg: fmt.Sprint(r)}}
		}
	}()
	if req.route != nil {
		var emit func(wire.HopBody) bool
		if req.route.Flags&wire.RouteQuiet == 0 {
			sess, id := req.sess, req.id
			// HOPs are progress, not answers: delivery is best-effort (a
			// refused send stops the stream), conservation counts only the
			// terminal ROUTE_DONE/ERROR. The stream rides sendStream's
			// backpressure — one timer at the request deadline bounds the
			// whole walk's blocking. AppendMsg copies the frame bytes out
			// of the walker's arena before emit returns.
			var timeout <-chan time.Time
			if !req.deadline.IsZero() {
				t := time.NewTimer(time.Until(req.deadline))
				defer t.Stop()
				timeout = t.C
			}
			emit = func(hb wire.HopBody) bool {
				return sess.sendStream(wire.Msg{Type: wire.MsgHop, ID: id,
					Body: wire.EncodeHop(hb)}, timeout)
			}
		}
		done, err := d.walkRoute(req.sess.protocol, *req.route, emit)
		if err != nil {
			code := wire.CodeBadRequest
			if errors.Is(err, ErrWalkOverrun) {
				code = wire.CodeOverrun
			}
			return processResult{err: &wire.ErrorBody{Code: code, Msg: err.Error()}}
		}
		return processResult{done: done}
	}
	fwds, err := d.decide(req.sess.protocol, req.body)
	if err != nil {
		code := wire.CodeBadRequest
		if errors.Is(err, ErrUnservable) {
			code = wire.CodeBadProtocol
		}
		return processResult{err: &wire.ErrorBody{Code: code, Msg: err.Error()}}
	}
	return processResult{fwds: fwds}
}

// answer delivers a produced FORWARDS/ERROR answer, counting production
// unconditionally and delivery best-effort.
func (s *Server) answer(req *request, res processResult) {
	var body []byte
	if res.done != nil {
		var err error
		if body, err = wire.EncodeRouteDone(*res.done); err != nil {
			res = processResult{err: &wire.ErrorBody{Code: wire.CodeBadRequest, Msg: err.Error()}}
		}
	}
	var m wire.Msg
	switch {
	case res.err != nil:
		s.answeredErrors.Add(1)
		m = wire.Msg{Type: wire.MsgError, ID: req.id, Body: wire.EncodeError(*res.err)}
	case res.done != nil:
		s.answeredRoutes.Add(1)
		s.routeHops.Add(int64(res.done.Hops))
		m = wire.Msg{Type: wire.MsgRouteDone, ID: req.id, Body: body}
		if !req.deadline.IsZero() {
			// The walk's HOP burst keeps the outbound queue near-full by
			// design; the terminal answer waits for space (bounded by the
			// request deadline) instead of reading fullness as a slow client.
			t := time.NewTimer(time.Until(req.deadline))
			defer t.Stop()
			if !req.sess.sendStream(m, t.C) {
				s.undelivered.Add(1)
			}
			return
		}
	default:
		s.answeredForwards.Add(1)
		m = wire.Msg{Type: wire.MsgForwards, ID: req.id, Body: wire.EncodeForwards(res.fwds)}
	}
	if !req.sess.send(m) {
		s.undelivered.Add(1)
	}
}

// shedReq answers req with a SHED, counting production unconditionally.
func (s *Server) shedReq(req *request, reason byte) {
	s.shed[reason-1].Add(1)
	m := wire.Msg{Type: wire.MsgShed, ID: req.id, Body: wire.EncodeShed(wire.ShedBody{
		Reason:       reason,
		RetryAfterMs: uint32(s.cfg.RetryAfter / time.Millisecond),
	})}
	if !req.sess.send(m) {
		s.undelivered.Add(1)
	}
}

// writerBatchBytes caps how much queued output the writer coalesces into
// one syscall.
const writerBatchBytes = 64 << 10

// session is one client connection: a reader goroutine (the session state
// machine) plus a writer goroutine draining the bounded outbound queue.
type session struct {
	srv  *Server
	conn net.Conn

	protocol string // set by HELLO

	out  chan []byte
	dead chan struct{}

	closeOnce sync.Once
	evictedBy string
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:  srv,
		conn: conn,
		out:  make(chan []byte, srv.cfg.SendBuffer),
		dead: make(chan struct{}),
	}
}

// send enqueues one reply for the writer. It never blocks: a full outbound
// queue means the client is reading slower than it requests, and the
// session is evicted rather than letting it wedge a worker. Returns false
// when the reply cannot be delivered (session dead or evicted now).
func (s *session) send(m wire.Msg) bool {
	data := wire.AppendMsg(nil, m)
	select {
	case <-s.dead:
		return false
	default:
	}
	select {
	case s.out <- data:
		return true
	case <-s.dead:
		return false
	default:
		s.srv.evicted.Add(1)
		s.evict("send-queue overflow (slow client)")
		return false
	}
}

// sendStream enqueues m, blocking for backpressure instead of evicting:
// a route walk produces HOP frames at memory speed while the client
// drains at wire speed, so a full outbound queue during a stream means
// "wait", not "slow client". The timeout channel (a timer at the request
// deadline) bounds the wait; on timeout or session death the message is
// forfeited without killing the session, so the walk — and conservation —
// continue. nil timeout falls back to the non-blocking send.
func (s *session) sendStream(m wire.Msg, timeout <-chan time.Time) bool {
	if timeout == nil {
		return s.send(m)
	}
	data := wire.AppendMsg(nil, m)
	select {
	case <-s.dead:
		return false
	default:
	}
	select {
	case s.out <- data:
		return true
	case <-s.dead:
		return false
	case <-timeout:
		return false
	}
}

// evict terminates the session: the connection closes (unblocking the
// reader) and the writer stops. Idempotent.
func (s *session) evict(why string) {
	s.closeOnce.Do(func() {
		s.evictedBy = why
		close(s.dead)
		s.conn.Close()
	})
}

// run is the session reader: HELLO handshake, then DECIDE admission until
// the connection ends. The writer goroutine is started here and reaped by
// connection close.
func (s *session) run() {
	defer s.srv.readers.Done()
	defer func() {
		s.evict("session end")
		s.srv.mu.Lock()
		delete(s.srv.sessions, s)
		s.srv.mu.Unlock()
	}()
	go s.writer()

	cfg := s.srv.cfg
	if !s.hello() {
		return
	}
	for {
		s.conn.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
		m, err := wire.ReadMsg(s.conn)
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				// Corrupt envelope or idle timeout: say why, best-effort.
				s.send(wire.Msg{Type: wire.MsgError, Body: wire.EncodeError(
					wire.ErrorBody{Code: wire.CodeBadRequest, Msg: err.Error()})})
			}
			return
		}
		req := &request{sess: s, id: m.ID,
			deadline: time.Now().Add(cfg.RequestTimeout)}
		var err2 error
		switch m.Type {
		case wire.MsgDecide:
			req.body, err2 = wire.DecodeDecide(m.Body)
		case wire.MsgRoute:
			var rb wire.RouteBody
			if rb, err2 = wire.DecodeRoute(m.Body); err2 == nil {
				req.route = &rb
			}
		default:
			s.send(wire.Msg{Type: wire.MsgError, ID: m.ID, Body: wire.EncodeError(
				wire.ErrorBody{Code: wire.CodeState,
					Msg: fmt.Sprintf("unexpected %s in session", wire.MsgName(m.Type))})})
			return
		}
		if err2 != nil {
			// Malformed request body: answered (as an error), not admitted —
			// admission means a well-formed request entered the service.
			s.send(wire.Msg{Type: wire.MsgError, ID: m.ID, Body: wire.EncodeError(
				wire.ErrorBody{Code: wire.CodeBadRequest, Msg: err2.Error()})})
			continue
		}
		s.admit(req)
	}
}

// admit counts the request and routes it to the queue, a SHED, or — when
// the queue is full — a SHED with the queue reason. Every admitted request
// is answered by exactly one of these paths.
func (s *session) admit(req *request) {
	srv := s.srv
	srv.admitted.Add(1)
	if srv.draining.Load() {
		srv.shedReq(req, wire.ShedDraining)
		return
	}
	select {
	case srv.queue <- req:
	default:
		srv.shedReq(req, wire.ShedQueue)
	}
}

// hello performs the handshake: first message must be a HELLO naming a
// servable protocol; the server echoes it with the deployment size.
func (s *session) hello() bool {
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
	m, err := wire.ReadMsg(s.conn)
	if err != nil {
		return false
	}
	fail := func(code uint16, msg string) bool {
		s.send(wire.Msg{Type: wire.MsgError, ID: m.ID,
			Body: wire.EncodeError(wire.ErrorBody{Code: code, Msg: msg})})
		return false
	}
	if m.Type != wire.MsgHello {
		return fail(wire.CodeState, fmt.Sprintf("expected HELLO, got %s", wire.MsgName(m.Type)))
	}
	h, err := wire.DecodeHello(m.Body)
	if err != nil {
		return fail(wire.CodeBadRequest, err.Error())
	}
	if h.Version != wire.SessionVersion {
		return fail(wire.CodeBadRequest, fmt.Sprintf("session version %d unsupported", h.Version))
	}
	if err := CheckServable(h.Protocol); err != nil {
		return fail(wire.CodeBadProtocol, err.Error())
	}
	s.protocol = h.Protocol
	s.srv.helloed.Add(1)
	s.send(wire.Msg{Type: wire.MsgHello, ID: m.ID, Body: wire.EncodeHello(wire.HelloBody{
		Version:  wire.SessionVersion,
		Protocol: h.Protocol,
		Nodes:    uint32(s.srv.dep.NW.Len()),
	})})
	return true
}

// writer drains the outbound queue onto the connection, one write deadline
// per reply. A write that stalls past WriteTimeout evicts the session: a
// client that cannot absorb answers must not pin server memory.
func (s *session) writer() {
	// Coalesce whatever has accumulated in the queue into one write: a
	// route walk's HOP stream arrives hundreds of messages at a burst, and
	// one syscall per message — not encoding, not the walk — would dominate
	// streaming cost. The batch cap bounds the latency a trailing message
	// can hide behind a burst.
	var buf []byte
	for {
		select {
		case data := <-s.out:
			buf = append(buf[:0], data...)
		coalesce:
			for len(buf) < writerBatchBytes {
				select {
				case more := <-s.out:
					buf = append(buf, more...)
				default:
					break coalesce
				}
			}
			s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
			if _, err := s.conn.Write(buf); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					s.srv.evicted.Add(1)
				}
				s.evict("write: " + err.Error())
				return
			}
		case <-s.dead:
			return
		}
	}
}
