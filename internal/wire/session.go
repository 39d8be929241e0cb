package wire

// This file defines the session envelope of the gmpd decision service: a
// length-framed message layer carried over a byte stream (TCP), wrapping the
// on-air Frame format above. A session is one client connection:
//
//	client → HELLO(protocol)            server → HELLO (echo + node count)
//	client → DECIDE(op, Frame)          server → FORWARDS | ERROR | SHED
//	server → DRAIN(budget)              (broadcast; no reply expected)
//
// Every DECIDE is answered exactly once, matched by the envelope's request
// ID. The envelope's body-length field is attacker-controlled: readers must
// bound it (MaxBody) before allocating, and the decoders below validate
// every interior length the same way.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gmp/internal/geom"
)

// Session message types.
const (
	// MsgHello opens a session (client → server) and acknowledges it
	// (server → client).
	MsgHello = byte(iota + 1)
	// MsgDecide asks for one routing decision; the body is a DecideBody.
	MsgDecide
	// MsgForwards answers a DECIDE with the decision's forward list.
	MsgForwards
	// MsgError answers a DECIDE (or a broken HELLO) with a typed failure.
	MsgError
	// MsgShed answers a DECIDE the server refused to serve — queue full,
	// deadline blown in queue, or draining — with a retry-after hint. A
	// SHED is an answer: the server never silently drops an admitted
	// request.
	MsgShed
	// MsgDrain is the server's drain broadcast: stop sending, finish up.
	MsgDrain
	// MsgRoute asks the server to walk an entire multicast route
	// server-side; the body is a RouteBody. Answered by a stream of HOP
	// messages (unless RouteQuiet) terminated by exactly one ROUTE_DONE,
	// ERROR, or SHED.
	MsgRoute
	// MsgHop is one streamed transmission of a ROUTE walk; the body is a
	// HopBody. HOPs are progress, not answers: the walk's single answer is
	// the terminating ROUTE_DONE.
	MsgHop
	// MsgRouteDone terminates a ROUTE stream with the walk's per-destination
	// outcome summary; the body is a RouteDoneBody.
	MsgRouteDone
	msgTypeEnd
)

// MsgName returns a human-readable name for a session message type.
func MsgName(t byte) string {
	switch t {
	case MsgHello:
		return "HELLO"
	case MsgDecide:
		return "DECIDE"
	case MsgForwards:
		return "FORWARDS"
	case MsgError:
		return "ERROR"
	case MsgShed:
		return "SHED"
	case MsgDrain:
		return "DRAIN"
	case MsgRoute:
		return "ROUTE"
	case MsgHop:
		return "HOP"
	case MsgRouteDone:
		return "ROUTE_DONE"
	default:
		return fmt.Sprintf("type%d", t)
	}
}

// MaxBody is the largest session-message body a conforming endpoint sends:
// a full 255-destination frame with perimeter+anchor state and a maximal
// 64 KiB payload fits with room to spare. Readers reject larger claims
// before allocating anything.
const MaxBody = 1 << 17

const msgHeaderSize = 1 /*type*/ + 8 /*request id*/ + 4 /*body len*/

// Session envelope errors.
var (
	ErrBodyTooLarge = errors.New("wire: session body length exceeds MaxBody")
	ErrBadMsgType   = errors.New("wire: unknown session message type")
	ErrShortBody    = errors.New("wire: truncated session body")
)

// Msg is one session envelope: a type, the request ID it belongs to
// (server replies echo the request's ID; server-initiated messages use 0),
// and the type-specific body.
type Msg struct {
	Type byte
	ID   uint64
	Body []byte
}

// AppendMsg appends the envelope encoding of m to dst.
func AppendMsg(dst []byte, m Msg) []byte {
	dst = append(dst, m.Type)
	dst = binary.BigEndian.AppendUint64(dst, m.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Body)))
	return append(dst, m.Body...)
}

// ReadMsg reads one envelope from r. The body-length field is validated
// against MaxBody before any allocation — a lying peer cannot make the
// reader allocate from an unchecked length. io.EOF is returned unwrapped
// when the stream ends cleanly between messages.
func ReadMsg(r io.Reader) (Msg, error) {
	var hdr [msgHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Msg{}, err // io.EOF: clean close between messages
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Msg{}, err
	}
	m := Msg{Type: hdr[0], ID: binary.BigEndian.Uint64(hdr[1:9])}
	if m.Type == 0 || m.Type >= msgTypeEnd {
		return Msg{}, fmt.Errorf("%w: %d", ErrBadMsgType, m.Type)
	}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > MaxBody {
		return Msg{}, fmt.Errorf("%w: %d", ErrBodyTooLarge, n)
	}
	if n > 0 {
		m.Body = make([]byte, n)
		if _, err := io.ReadFull(r, m.Body); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Msg{}, err
		}
	}
	return m, nil
}

// SessionVersion is the HELLO protocol version this package implements.
const SessionVersion = 1

// HelloBody is the session handshake: the client names the routing protocol
// it wants decisions from; the server echoes it and reports the deployment
// size it serves.
type HelloBody struct {
	Version  byte
	Protocol string
	// Nodes is filled by the server's echo: the deployment's node count.
	Nodes uint32
}

// EncodeHello serializes a HELLO body.
func EncodeHello(h HelloBody) []byte {
	out := make([]byte, 0, 6+len(h.Protocol))
	out = append(out, h.Version)
	out = binary.BigEndian.AppendUint32(out, h.Nodes)
	out = append(out, byte(len(h.Protocol)))
	return append(out, h.Protocol...)
}

// DecodeHello parses a HELLO body.
func DecodeHello(body []byte) (HelloBody, error) {
	if len(body) < 6 {
		return HelloBody{}, fmt.Errorf("%w: hello", ErrShortBody)
	}
	h := HelloBody{Version: body[0], Nodes: binary.BigEndian.Uint32(body[1:5])}
	n := int(body[5])
	if len(body) < 6+n {
		return HelloBody{}, fmt.Errorf("%w: hello protocol name", ErrShortBody)
	}
	h.Protocol = string(body[6 : 6+n])
	return h, nil
}

// Decision ops.
const (
	// OpStart asks for a source decision: the frame's NextHop locates the
	// source node, hops must be 0.
	OpStart = byte(iota)
	// OpDecide asks for a relay decision: the frame's NextHop locates the
	// deciding node.
	OpDecide
)

// DecideBody is one decision request: the op plus the on-air frame to
// decide on.
type DecideBody struct {
	Op    byte
	Frame []byte // Encode()d Frame
}

// EncodeDecide serializes a DECIDE body.
func EncodeDecide(d DecideBody) []byte {
	out := make([]byte, 0, 1+len(d.Frame))
	out = append(out, d.Op)
	return append(out, d.Frame...)
}

// DecodeDecide parses a DECIDE body. The frame bytes are returned
// unparsed — Frame decoding (with its own bounds checks) is the server
// worker's job, inside its panic isolation.
func DecodeDecide(body []byte) (DecideBody, error) {
	if len(body) < 1 {
		return DecideBody{}, fmt.Errorf("%w: decide", ErrShortBody)
	}
	if body[0] > OpDecide {
		return DecideBody{}, fmt.Errorf("wire: unknown decide op %d", body[0])
	}
	return DecideBody{Op: body[0], Frame: body[1:]}, nil
}

// ForwardReply is one element of a FORWARDS answer: the next-hop node ID
// (or a drop sentinel < 0, mirroring sim.DropCopy/DropWatchdog) and the
// re-encoded frame for that hop.
type ForwardReply struct {
	To    int32
	Frame []byte
}

// EncodeForwards serializes a FORWARDS body.
func EncodeForwards(fwds []ForwardReply) []byte {
	n := 2
	for _, f := range fwds {
		n += 4 + 4 + len(f.Frame)
	}
	out := make([]byte, 0, n)
	out = binary.BigEndian.AppendUint16(out, uint16(len(fwds)))
	for _, f := range fwds {
		out = binary.BigEndian.AppendUint32(out, uint32(f.To))
		out = binary.BigEndian.AppendUint32(out, uint32(len(f.Frame)))
		out = append(out, f.Frame...)
	}
	return out
}

// DecodeForwards parses a FORWARDS body, bounds-checking every interior
// frame length against the remaining input before slicing.
func DecodeForwards(body []byte) ([]ForwardReply, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("%w: forwards", ErrShortBody)
	}
	cnt := int(binary.BigEndian.Uint16(body))
	off := 2
	out := make([]ForwardReply, 0, min(cnt, 64))
	for i := 0; i < cnt; i++ {
		if len(body) < off+8 {
			return nil, fmt.Errorf("%w: forward %d header", ErrShortBody, i)
		}
		to := int32(binary.BigEndian.Uint32(body[off:]))
		fl := int(binary.BigEndian.Uint32(body[off+4:]))
		off += 8
		if fl > len(body)-off {
			return nil, fmt.Errorf("%w: forward %d frame (%d bytes claimed, %d left)",
				ErrShortBody, i, fl, len(body)-off)
		}
		out = append(out, ForwardReply{To: to, Frame: body[off : off+fl : off+fl]})
		off += fl
	}
	return out, nil
}

// Error codes carried by MsgError.
const (
	// CodeBadRequest: the request could not be parsed or referenced
	// locations outside the deployment.
	CodeBadRequest = uint16(iota + 1)
	// CodeBadProtocol: HELLO named an unknown or unservable protocol, or a
	// DECIDE asked a per-hop decision of a protocol that walks only by
	// ROUTE (a redundant one such as MCFR).
	CodeBadProtocol
	// CodePanic: the decision panicked; the session survives, the request
	// is answered with this.
	CodePanic
	// CodeState: a message arrived in the wrong session state (DECIDE
	// before HELLO, second HELLO, ...).
	CodeState
	// CodeOverrun: a ROUTE walk exceeded the server's total-step ceiling
	// (a livelocking protocol or an absurd budget); the walk was aborted.
	CodeOverrun
)

// ErrorBody is a typed failure answer.
type ErrorBody struct {
	Code uint16
	Msg  string
}

// EncodeError serializes an ERROR body. Messages are clamped to fit the
// envelope comfortably.
func EncodeError(e ErrorBody) []byte {
	if len(e.Msg) > 512 {
		e.Msg = e.Msg[:512]
	}
	out := make([]byte, 0, 4+len(e.Msg))
	out = binary.BigEndian.AppendUint16(out, e.Code)
	out = binary.BigEndian.AppendUint16(out, uint16(len(e.Msg)))
	return append(out, e.Msg...)
}

// DecodeError parses an ERROR body.
func DecodeError(body []byte) (ErrorBody, error) {
	if len(body) < 4 {
		return ErrorBody{}, fmt.Errorf("%w: error", ErrShortBody)
	}
	e := ErrorBody{Code: binary.BigEndian.Uint16(body)}
	n := int(binary.BigEndian.Uint16(body[2:]))
	if len(body) < 4+n {
		return ErrorBody{}, fmt.Errorf("%w: error message", ErrShortBody)
	}
	e.Msg = string(body[4 : 4+n])
	return e, nil
}

// Shed reasons carried by MsgShed — the service-plane mirror of the sim's
// drop-reason taxonomy: every refused request says why.
const (
	// ShedQueue: the admission queue was full.
	ShedQueue = byte(iota + 1)
	// ShedDeadline: the request's deadline expired while it waited in the
	// admission queue.
	ShedDeadline
	// ShedDraining: the server is draining and no longer serves new work.
	ShedDraining
)

// ShedName returns a human-readable shed-reason name.
func ShedName(r byte) string {
	switch r {
	case ShedQueue:
		return "queue-full"
	case ShedDeadline:
		return "deadline"
	case ShedDraining:
		return "draining"
	default:
		return fmt.Sprintf("reason%d", r)
	}
}

// ShedBody is a load-shedding answer: why, and when to come back.
type ShedBody struct {
	Reason       byte
	RetryAfterMs uint32
}

// EncodeShed serializes a SHED body.
func EncodeShed(s ShedBody) []byte {
	out := make([]byte, 0, 5)
	out = append(out, s.Reason)
	return binary.BigEndian.AppendUint32(out, s.RetryAfterMs)
}

// DecodeShed parses a SHED body.
func DecodeShed(body []byte) (ShedBody, error) {
	if len(body) < 5 {
		return ShedBody{}, fmt.Errorf("%w: shed", ErrShortBody)
	}
	return ShedBody{Reason: body[0], RetryAfterMs: binary.BigEndian.Uint32(body[1:5])}, nil
}

// DrainBody is the server's drain broadcast: the budget it will spend
// finishing in-flight work before closing.
type DrainBody struct {
	BudgetMs uint32
}

// EncodeDrain serializes a DRAIN body.
func EncodeDrain(d DrainBody) []byte {
	return binary.BigEndian.AppendUint32(nil, d.BudgetMs)
}

// DecodeDrain parses a DRAIN body.
func DecodeDrain(body []byte) (DrainBody, error) {
	if len(body) < 4 {
		return DrainBody{}, fmt.Errorf("%w: drain", ErrShortBody)
	}
	return DrainBody{BudgetMs: binary.BigEndian.Uint32(body)}, nil
}

// Route flags carried by RouteBody.
const (
	// RouteQuiet suppresses the per-hop HOP stream; the client gets only
	// the terminating ROUTE_DONE. Load generators use it to measure pure
	// walk throughput without paying per-hop reads.
	RouteQuiet = byte(1 << 0)
)

// RouteBody is one streaming-route request: walk the whole multicast route
// server-side. The frame must be OpStart-shaped — NextHop locates the
// source, hops 0, no perimeter or anchor state.
type RouteBody struct {
	// Budget is the per-copy hop budget, mirroring the engine's max-hops
	// watchdog; 0 asks for the server's default.
	Budget uint16
	Flags  byte
	Frame  []byte // Encode()d Frame
}

// EncodeRoute serializes a ROUTE body.
func EncodeRoute(r RouteBody) []byte {
	out := make([]byte, 0, 3+len(r.Frame))
	out = binary.BigEndian.AppendUint16(out, r.Budget)
	out = append(out, r.Flags)
	return append(out, r.Frame...)
}

// DecodeRoute parses a ROUTE body. As with DECIDE, the frame bytes are
// returned unparsed — Frame decoding (with its own bounds checks) happens
// inside the server worker's panic isolation.
func DecodeRoute(body []byte) (RouteBody, error) {
	if len(body) < 3 {
		return RouteBody{}, fmt.Errorf("%w: route", ErrShortBody)
	}
	return RouteBody{
		Budget: binary.BigEndian.Uint16(body),
		Flags:  body[2],
		Frame:  body[3:],
	}, nil
}

// HopBody is one streamed transmission of a ROUTE walk: the sending and
// receiving node IDs (To < 0 mirrors the sim's drop sentinels) and the
// frame exactly as it would go on the air.
type HopBody struct {
	// Seq numbers the walk's transmissions in application order, from 0.
	Seq   uint32
	From  int32
	To    int32
	Frame []byte
}

// EncodeHop serializes a HOP body.
func EncodeHop(h HopBody) []byte {
	out := make([]byte, 0, 12+len(h.Frame))
	return AppendHop(out, h)
}

// AppendHop appends the HOP body encoding of h to dst.
func AppendHop(dst []byte, h HopBody) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.To))
	return append(dst, h.Frame...)
}

// DecodeHop parses a HOP body.
func DecodeHop(body []byte) (HopBody, error) {
	if len(body) < 12 {
		return HopBody{}, fmt.Errorf("%w: hop", ErrShortBody)
	}
	return HopBody{
		Seq:   binary.BigEndian.Uint32(body),
		From:  int32(binary.BigEndian.Uint32(body[4:])),
		To:    int32(binary.BigEndian.Uint32(body[8:])),
		Frame: body[12:],
	}, nil
}

// Per-destination route outcomes carried by ROUTE_DONE. RouteDelivered is 0;
// every other value is a drop, mirroring the sim's drop-reason taxonomy.
const (
	RouteDelivered = byte(iota)
	// RouteDropProtocol: a decision explicitly dropped the copy.
	RouteDropProtocol
	// RouteDropWatchdog: the perimeter watchdog gave up on the copy.
	RouteDropWatchdog
	// RouteDropHopBudget: the copy exceeded the walk's hop budget.
	RouteDropHopBudget
	// RouteDropStranded: a decision returned no forwards for a live copy.
	RouteDropStranded
	// RouteDropInvalid: a decision forwarded out of range or to itself.
	RouteDropInvalid
)

// RouteStatusName returns a human-readable per-destination outcome name.
func RouteStatusName(s byte) string {
	switch s {
	case RouteDelivered:
		return "delivered"
	case RouteDropProtocol:
		return "drop-protocol"
	case RouteDropWatchdog:
		return "drop-watchdog"
	case RouteDropHopBudget:
		return "drop-hop-budget"
	case RouteDropStranded:
		return "drop-stranded"
	case RouteDropInvalid:
		return "drop-invalid-send"
	default:
		return fmt.Sprintf("status%d", s)
	}
}

// DestOutcome is one destination's fate in a ROUTE walk: the resolved node,
// its advertised location, delivered-or-why-not, and the hop count at
// delivery (0 unless delivered).
type DestOutcome struct {
	Node   int32
	Loc    geom.Point
	Status byte
	Hops   uint16
}

const destOutcomeSize = 4 + pointSize + 1 + 2

// RouteDoneBody is the walk summary terminating a ROUTE stream.
type RouteDoneBody struct {
	// Hops counts the walk's transmissions (equals the number of HOP
	// messages a non-quiet stream carried).
	Hops uint32
	// Decisions counts routing decisions applied, including memo-cache hits.
	Decisions uint32
	// CacheHits counts decisions answered from the server's memo cache.
	CacheHits uint32
	// Outcomes has one entry per distinct resolved destination node.
	Outcomes []DestOutcome
}

// EncodeRouteDone serializes a ROUTE_DONE body. An outcome location that is
// not finite is refused with ErrNonFinite.
func EncodeRouteDone(d RouteDoneBody) ([]byte, error) {
	for _, o := range d.Outcomes {
		if !finite(o.Loc) {
			return nil, fmt.Errorf("%w: destination %d", ErrNonFinite, o.Node)
		}
	}
	out := make([]byte, 0, 14+len(d.Outcomes)*destOutcomeSize)
	out = binary.BigEndian.AppendUint32(out, d.Hops)
	out = binary.BigEndian.AppendUint32(out, d.Decisions)
	out = binary.BigEndian.AppendUint32(out, d.CacheHits)
	out = binary.BigEndian.AppendUint16(out, uint16(len(d.Outcomes)))
	for _, o := range d.Outcomes {
		out = binary.BigEndian.AppendUint32(out, uint32(o.Node))
		out = appendPoint(out, o.Loc)
		out = append(out, o.Status)
		out = binary.BigEndian.AppendUint16(out, o.Hops)
	}
	return out, nil
}

// DecodeRouteDone parses a ROUTE_DONE body, bounds-checking the
// attacker-controlled outcome count against the remaining input before
// sizing any allocation from it.
func DecodeRouteDone(body []byte) (RouteDoneBody, error) {
	if len(body) < 14 {
		return RouteDoneBody{}, fmt.Errorf("%w: route-done", ErrShortBody)
	}
	d := RouteDoneBody{
		Hops:      binary.BigEndian.Uint32(body),
		Decisions: binary.BigEndian.Uint32(body[4:]),
		CacheHits: binary.BigEndian.Uint32(body[8:]),
	}
	cnt := int(binary.BigEndian.Uint16(body[12:]))
	if len(body)-14 < cnt*destOutcomeSize {
		return RouteDoneBody{}, fmt.Errorf("%w: %d outcomes need %d bytes, have %d",
			ErrShortBody, cnt, cnt*destOutcomeSize, len(body)-14)
	}
	d.Outcomes = make([]DestOutcome, cnt)
	off := 14
	for i := range d.Outcomes {
		o := &d.Outcomes[i]
		o.Node = int32(binary.BigEndian.Uint32(body[off:]))
		o.Loc, off = readPoint(body, off+4)
		if !finite(o.Loc) {
			return RouteDoneBody{}, fmt.Errorf("%w: destination %d", ErrNonFinite, o.Node)
		}
		o.Status = body[off]
		o.Hops = binary.BigEndian.Uint16(body[off+1:])
		off += 3
	}
	return d, nil
}
