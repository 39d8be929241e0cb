package serve

// Client side of the session protocol: a synchronous one-request-at-a-time
// client (gmpload and the E-X13 campaign open many of them) with its
// per-hop route walker, plus the retry policy that turns SHED answers into
// jittered exponential backoff under a hard attempt/time budget — the
// cooperative half of the server's load-shedding contract.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"gmp/internal/wire"
)

// Client errors.
var (
	ErrHandshake   = errors.New("serve: handshake failed")
	ErrServerError = errors.New("serve: server answered ERROR")
	ErrDrained     = errors.New("serve: server is draining")
	ErrRetryBudget = errors.New("serve: retry budget exhausted")
	ErrBadReply    = errors.New("serve: malformed reply")
)

// Reply is one server answer to a DECIDE or ROUTE.
type Reply struct {
	// Kind is wire.MsgForwards, wire.MsgRouteDone, wire.MsgError, or
	// wire.MsgShed.
	Kind     byte
	Forwards []wire.ForwardReply
	Done     wire.RouteDoneBody
	Err      wire.ErrorBody
	Shed     wire.ShedBody
}

// Client is a synchronous session client: one outstanding request at a
// time, matched by request ID. Not safe for concurrent use; open one per
// goroutine.
type Client struct {
	conn net.Conn
	// br buffers reads: a streamed route delivers hundreds of HOP messages
	// per burst, and per-message read syscalls would dominate the client's
	// half of the stream. Deadlines still live on conn.
	br       *bufio.Reader
	nextID   uint64
	protocol string
	nodes    uint32
	// Drained flips when the server broadcasts DRAIN; callers should stop
	// issuing new requests.
	Drained bool
	// Timeout bounds each request round-trip (read deadline on the reply).
	Timeout time.Duration
}

// Dial connects, performs the HELLO handshake for the named protocol, and
// returns a ready client.
func Dial(addr, protocol string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), protocol: protocol, Timeout: timeout}
	if err := c.hello(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) hello() error {
	id, err := c.write(wire.MsgHello, wire.EncodeHello(wire.HelloBody{
		Version: wire.SessionVersion, Protocol: c.protocol}))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	rm, err := c.read(id)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	switch rm.Type {
	case wire.MsgHello:
		h, err := wire.DecodeHello(rm.Body)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrHandshake, err)
		}
		c.nodes = h.Nodes
		return nil
	case wire.MsgError:
		e, _ := wire.DecodeError(rm.Body)
		return fmt.Errorf("%w: %s (code %d)", ErrHandshake, e.Msg, e.Code)
	default:
		return fmt.Errorf("%w: unexpected %s", ErrHandshake, wire.MsgName(rm.Type))
	}
}

// Nodes reports the deployment size the server announced in its HELLO echo.
func (c *Client) Nodes() int { return int(c.nodes) }

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// write sends one request under the next request ID and returns the ID. The
// ID is spent only when the write succeeds, so nextID counts the requests
// put on the wire.
func (c *Client) write(typ byte, body []byte) (uint64, error) {
	id := c.nextID + 1
	c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	if _, err := c.conn.Write(wire.AppendMsg(nil, wire.Msg{Type: typ, ID: id, Body: body})); err != nil {
		return 0, err
	}
	c.nextID = id
	return id, nil
}

// read returns the next message for request id (any request when id is 0),
// absorbing server-initiated DRAIN broadcasts along the way. The read
// deadline is re-armed per message, so Timeout bounds the gap between
// messages, not a whole streamed walk.
func (c *Client) read(id uint64) (wire.Msg, error) {
	c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	for {
		m, err := wire.ReadMsg(c.br)
		if err != nil {
			return wire.Msg{}, err
		}
		if m.Type == wire.MsgDrain {
			c.Drained = true
			continue
		}
		if id != 0 && m.ID != id {
			return wire.Msg{}, fmt.Errorf("%w: reply ID %d for request %d", ErrBadReply, m.ID, id)
		}
		return m, nil
	}
}

// Do issues one DECIDE and returns the server's answer. Transport failures
// (connection gone, reply timeout) return an error; protocol-level refusals
// (ERROR, SHED) are answers, returned in the Reply.
func (c *Client) Do(body wire.DecideBody) (Reply, error) {
	id, err := c.Send(body)
	if err != nil {
		return Reply{}, err
	}
	rm, err := c.read(id)
	if err != nil {
		return Reply{}, err
	}
	return parseReply(rm)
}

// Route issues one ROUTE and reads the streamed walk: every HOP message is
// handed to hopFn (when non-nil) as it arrives, and the terminal answer —
// ROUTE_DONE, ERROR, or SHED — is returned as the Reply. One request, one
// round of framing, the whole multicast walk; RoutePerHop is the per-RTT
// alternative. Pass wire.RouteQuiet in rb.Flags to suppress the HOP stream
// server-side when only the summary matters.
func (c *Client) Route(rb wire.RouteBody, hopFn func(wire.HopBody)) (Reply, error) {
	id, err := c.write(wire.MsgRoute, wire.EncodeRoute(rb))
	if err != nil {
		return Reply{}, err
	}
	for {
		rm, err := c.read(id)
		if err != nil {
			return Reply{}, err
		}
		if rm.Type != wire.MsgHop {
			return parseReply(rm)
		}
		hb, err := wire.DecodeHop(rm.Body)
		if err != nil {
			return Reply{}, fmt.Errorf("%w: %w", ErrBadReply, err)
		}
		if hopFn != nil {
			hopFn(hb)
		}
	}
}

// RoutePerHop walks the route Route would, one DECIDE round trip per
// decision, with Route's answer shape: HOPs to hopFn, then
// ROUTE_DONE{Hops, Decisions}, or the first ERROR or SHED that refused a
// DECIDE. The walk is breadth-first, and each copy's hop count is tracked
// client-side (child = parent+1, the engine's rule) against rb.Budget, 0
// meaning DefaultRouteBudget. hopFn sees every drop sentinel and every send
// within budget, as the streamed walk emits them; a HOP's From is −1 at the
// source, whose ID no FORWARDS answer names. rb.Flags is unused.
func (c *Client) RoutePerHop(rb wire.RouteBody, hopFn func(wire.HopBody)) (Reply, error) {
	return walkPerHop(rb, hopFn, c.Do)
}

// walkPerHop is RoutePerHop over any DECIDE transport. The execution-mode
// oracle runs it over a decider, so it checks the walk clients run.
func walkPerHop(rb wire.RouteBody, hopFn func(wire.HopBody), do func(wire.DecideBody) (Reply, error)) (Reply, error) {
	budget := int(rb.Budget)
	if budget == 0 {
		budget = DefaultRouteBudget
	}
	type inflight struct {
		at    int32
		hops  int
		frame []byte
	}
	queue := []inflight{{at: -1, frame: rb.Frame}}
	var done wire.RouteDoneBody
	var seq uint32
	op := wire.OpStart
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		queue[head] = inflight{}
		rep, err := do(wire.DecideBody{Op: op, Frame: cur.frame})
		if err != nil || rep.Kind != wire.MsgForwards {
			return rep, err
		}
		op = wire.OpDecide
		done.Decisions++
		for _, fwd := range rep.Forwards {
			send := fwd.To >= 0
			if send && cur.hops+1 > budget {
				continue // killed by the hop budget before the air
			}
			if hopFn != nil {
				hopFn(wire.HopBody{Seq: seq, From: cur.at, To: fwd.To, Frame: fwd.Frame})
			}
			seq++
			if send {
				done.Hops++
				queue = append(queue, inflight{at: fwd.To, hops: cur.hops + 1, frame: fwd.Frame})
			}
		}
	}
	return Reply{Kind: wire.MsgRouteDone, Done: done}, nil
}

// Send issues a DECIDE without waiting for its answer — the pipelined half
// of the protocol, which carries request IDs precisely so a client can keep
// several requests in flight. Collect answers with Recv; request IDs
// correlate them.
func (c *Client) Send(body wire.DecideBody) (uint64, error) {
	return c.write(wire.MsgDecide, wire.EncodeDecide(body))
}

// Recv reads the next answer for any outstanding pipelined request,
// absorbing DRAIN broadcasts along the way.
func (c *Client) Recv() (uint64, Reply, error) {
	m, err := c.read(0)
	if err != nil {
		return 0, Reply{}, err
	}
	rep, err := parseReply(m)
	return m.ID, rep, err
}

// parseReply decodes one answer envelope into a Reply.
func parseReply(rm wire.Msg) (Reply, error) {
	rep := Reply{Kind: rm.Type}
	var err error
	switch rm.Type {
	case wire.MsgForwards:
		if rep.Forwards, err = wire.DecodeForwards(rm.Body); err != nil {
			return Reply{}, fmt.Errorf("%w: %w", ErrBadReply, err)
		}
	case wire.MsgRouteDone:
		if rep.Done, err = wire.DecodeRouteDone(rm.Body); err != nil {
			return Reply{}, fmt.Errorf("%w: %w", ErrBadReply, err)
		}
	case wire.MsgError:
		if rep.Err, err = wire.DecodeError(rm.Body); err != nil {
			return Reply{}, fmt.Errorf("%w: %w", ErrBadReply, err)
		}
	case wire.MsgShed:
		if rep.Shed, err = wire.DecodeShed(rm.Body); err != nil {
			return Reply{}, fmt.Errorf("%w: %w", ErrBadReply, err)
		}
	default:
		return Reply{}, fmt.Errorf("%w: unexpected %s", ErrBadReply, wire.MsgName(rm.Type))
	}
	return rep, nil
}

// RetryPolicy shapes DoRetry's backoff on SHED answers: jittered exponential
// growth from Base to Max, capped by both an attempt count and a wall-clock
// budget. The zero value disables retries (one attempt).
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (first try included); <= 1 means no
	// retries.
	MaxAttempts int
	// Base is the first backoff; each subsequent retry doubles it up to Max.
	Base time.Duration
	Max  time.Duration
	// Budget bounds the total wall-clock time spent retrying; zero means no
	// time bound.
	Budget time.Duration
}

// DefaultRetry is a polite client: a handful of attempts, starting near the
// server's typical retry-after hint.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, Base: 20 * time.Millisecond,
		Max: 500 * time.Millisecond, Budget: 3 * time.Second}
}

// DoRetry issues the request, retrying on SHED with jittered exponential
// backoff. The server's RetryAfterMs hint, when present, floors the first
// backoff. Returns the retry count alongside the final reply; when the
// budget runs out the last SHED reply is returned with ErrRetryBudget.
func (c *Client) DoRetry(body wire.DecideBody, pol RetryPolicy, rng *rand.Rand) (Reply, int, error) {
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	start := time.Now()
	backoff := pol.Base
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	var rep Reply
	var err error
	for try := 0; try < attempts; try++ {
		rep, err = c.Do(body)
		if err != nil || rep.Kind != wire.MsgShed {
			return rep, try, err
		}
		if rep.Shed.Reason == wire.ShedDraining {
			// Retrying against a draining server wastes everyone's time.
			return rep, try, ErrDrained
		}
		if try == attempts-1 {
			break
		}
		wait := backoff
		if hint := time.Duration(rep.Shed.RetryAfterMs) * time.Millisecond; wait < hint {
			wait = hint
		}
		// Full jitter: uniform in (0, wait] decorrelates retry storms.
		wait = time.Duration(1 + rng.Int63n(int64(wait)))
		if pol.Budget > 0 && time.Since(start)+wait > pol.Budget {
			return rep, try, ErrRetryBudget
		}
		time.Sleep(wait)
		backoff *= 2
		if pol.Max > 0 && backoff > pol.Max {
			backoff = pol.Max
		}
	}
	return rep, attempts - 1, ErrRetryBudget
}
