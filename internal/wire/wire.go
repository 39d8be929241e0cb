// Package wire defines a binary on-air format for GMP packets, following the
// paper's §2 addressing model: a node's location *is* its identifier and
// network address, so the header carries coordinates rather than IDs —
// the source location, the marked next-hop location ("each packet is marked
// with the location of the next hop and the corresponding node picks up the
// packet"), the PERIMODE flag with its traversal state, and the location of
// every remaining destination.
//
// The format makes the paper's 128-byte message size concrete: Capacity
// answers how many destinations fit a given message budget, and the encoder
// refuses to overflow it.
//
// Frame layout (version 2; big-endian, a point is two float32 coordinates):
//
//	magic(1) version(1) flags(1) hops(1) source(8) next-hop(8)
//	dest-count(1) payload-len(2) dests(8 each)
//	[FlagPerimeter] target(8) entry(8) face-entry(8)
//	[FlagPrevHop]   previous hop(8)
//	[FlagAnchor]    anchor(8)
//	payload
//
// Version 2 added the previous hop, so a stateless decision service resumes
// a face traversal on exactly the edge the walk arrived by. A version-1
// frame is refused with ErrBadVersion.
//
// Every point is finite: a NaN or infinite coordinate names no location,
// and widening a signaling-NaN float32 quiets it, so it would not survive a
// round trip. Both directions refuse one with ErrNonFinite.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"gmp/internal/geom"
)

// Format constants.
const (
	// Magic identifies GMP frames.
	Magic = 0x47 // 'G'
	// Version of the wire format.
	Version = 2

	// FlagPerimeter marks the paper's PERIMODE.
	FlagPerimeter = 1 << 0
	// FlagAnchor marks a frame carrying an anchor location: the point an
	// LGT-family copy (LGS/LGK/MCFR) is steered toward between
	// re-partitionings. The anchor is one of the frame's destination
	// locations, or the next hop's own once that destination was delivered,
	// carried explicitly so a stateless decision service can reconstruct the
	// in-flight routing state from the header alone.
	FlagAnchor = 1 << 1
	// FlagPrevHop marks a frame carrying the location of the node a face
	// traversal arrived from (planar.State.Prev): the next step's reference.
	FlagPrevHop = 1 << 2

	pointSize  = 8                                                                                                                             // two float32 coordinates
	fixedSize  = 1 /*magic*/ + 1 /*version*/ + 1 /*flags*/ + 1 /*hops*/ + pointSize /*source*/ + pointSize /*next hop*/ + 1 /*dest count*/ + 2 /*payload len*/
	periSize   = 3 * pointSize                                                                                                                 // target, entry, face-entry
	maxDestCnt = 255
)

// Frame is the decoded representation of one on-air packet.
type Frame struct {
	// Flags carries FlagPerimeter et al.
	Flags byte
	// Hops is the hop count so far (saturates at 255).
	Hops byte
	// Source is the origin's location.
	Source geom.Point
	// NextHop is the marked receiver location (§2: the node at this
	// location picks the packet up).
	NextHop geom.Point
	// Dests are the remaining destination locations.
	Dests []geom.Point
	// PeriTarget, PeriEntry and PeriFaceEntry carry the perimeter-mode
	// traversal state; meaningful only when FlagPerimeter is set.
	PeriTarget    geom.Point
	PeriEntry     geom.Point
	PeriFaceEntry geom.Point
	// PeriPrev is the previous hop's location; meaningful only when
	// FlagPrevHop is set.
	PeriPrev geom.Point
	// Anchor is the LGT-family steering location; meaningful only when
	// FlagAnchor is set. It equals one of Dests or NextHop.
	Anchor geom.Point
	// Payload is the application data.
	Payload []byte
}

// Perimeter reports whether the PERIMODE flag is set.
func (f *Frame) Perimeter() bool { return f.Flags&FlagPerimeter != 0 }

// HasAnchor reports whether the anchor-location flag is set.
func (f *Frame) HasAnchor() bool { return f.Flags&FlagAnchor != 0 }

// HasPrevHop reports whether the previous-hop flag is set.
func (f *Frame) HasPrevHop() bool { return f.Flags&FlagPrevHop != 0 }

// EncodedSize returns the exact on-air size of the frame in bytes.
func (f *Frame) EncodedSize() int {
	n := fixedSize + len(f.Dests)*pointSize + len(f.Payload)
	if f.Perimeter() {
		n += periSize
	}
	if f.HasPrevHop() {
		n += pointSize
	}
	if f.HasAnchor() {
		n += pointSize
	}
	return n
}

// HeaderSize returns the on-air overhead in bytes of a frame carrying
// ndests destination locations (and the perimeter state when perimeter is
// set), excluding the application payload. The simulator's dynamic-frame
// mode adds this to the payload size when computing airtime and energy.
// The optional anchor and previous-hop extensions (FlagAnchor, FlagPrevHop)
// are not counted: they exist for the decision service, and the sim's
// accounting predates them (frozen for byte-identity).
func HeaderSize(ndests int, perimeter bool) int {
	n := fixedSize + ndests*pointSize
	if perimeter {
		n += periSize
	}
	return n
}

// Capacity returns the maximum number of destination locations that fit a
// message of budget bytes with the given payload size, with (perimeter=true)
// or without the perimeter state. It returns 0 when even an empty
// destination list does not fit.
func Capacity(budget, payloadLen int, perimeter bool) int {
	n := budget - fixedSize - payloadLen
	if perimeter {
		n -= periSize
	}
	if n < 0 {
		return 0
	}
	c := n / pointSize
	if c > maxDestCnt {
		return maxDestCnt
	}
	return c
}

// Encoding and decoding errors. The truncation errors are typed per header
// field so a server can report exactly which attacker-controlled length lied;
// both match errors.Is(err, ErrShortFrame).
var (
	ErrTooManyDests = errors.New("wire: too many destinations")
	ErrBudget       = errors.New("wire: frame exceeds message budget")
	ErrShortFrame   = errors.New("wire: truncated frame")
	ErrBadMagic     = errors.New("wire: bad magic")
	ErrBadVersion   = errors.New("wire: unsupported version")
	ErrNonFinite    = errors.New("wire: non-finite coordinate")
	// ErrTruncatedDests: the destination count (plus any perimeter/anchor
	// state the flags promise) claims more bytes than the frame carries.
	ErrTruncatedDests = fmt.Errorf("%w: destination list", ErrShortFrame)
	// ErrTruncatedPayload: the payload length field claims more bytes than
	// the frame carries.
	ErrTruncatedPayload = fmt.Errorf("%w: payload", ErrShortFrame)
)

// Encode serializes the frame. budget, when positive, enforces a maximum
// on-air size (the paper's Table 1 uses 128 bytes).
func Encode(f *Frame, budget int) ([]byte, error) {
	return AppendFrame(nil, f, budget)
}

// AppendFrame appends the frame's encoding to dst and returns the extended
// slice, so hot paths can reuse one arena across many frames. budget, when
// positive, enforces a maximum on-air size.
func AppendFrame(dst []byte, f *Frame, budget int) ([]byte, error) {
	if len(f.Dests) > maxDestCnt {
		return dst, fmt.Errorf("%w: %d", ErrTooManyDests, len(f.Dests))
	}
	if !f.finite() {
		return dst, ErrNonFinite
	}
	size := f.EncodedSize()
	if budget > 0 && size > budget {
		return dst, fmt.Errorf("%w: %d > %d bytes", ErrBudget, size, budget)
	}
	out := dst
	if out == nil {
		out = make([]byte, 0, size)
	}
	out = append(out, Magic, Version, f.Flags, f.Hops)
	out = appendPoint(out, f.Source)
	out = appendPoint(out, f.NextHop)
	out = append(out, byte(len(f.Dests)))
	out = binary.BigEndian.AppendUint16(out, uint16(len(f.Payload)))
	for _, d := range f.Dests {
		out = appendPoint(out, d)
	}
	if f.Perimeter() {
		out = appendPoint(out, f.PeriTarget)
		out = appendPoint(out, f.PeriEntry)
		out = appendPoint(out, f.PeriFaceEntry)
	}
	if f.HasPrevHop() {
		out = appendPoint(out, f.PeriPrev)
	}
	if f.HasAnchor() {
		out = appendPoint(out, f.Anchor)
	}
	out = append(out, f.Payload...)
	return out, nil
}

// Decode parses a frame produced by Encode.
func Decode(data []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeInto(f, data); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses a frame produced by Encode into f, reusing f's Dests
// and Payload storage when it has capacity. Every field of f is
// overwritten (stale perimeter/anchor state from a previous decode cannot
// leak through), so a decoder loop can hold one Frame and call DecodeInto
// per message without per-frame allocations in steady state.
func DecodeInto(f *Frame, data []byte) error {
	if len(data) < fixedSize {
		return ErrShortFrame
	}
	if data[0] != Magic {
		return ErrBadMagic
	}
	if data[1] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, data[1])
	}
	*f = Frame{Flags: data[2], Hops: data[3], Dests: f.Dests, Payload: f.Payload}
	off := 4
	f.Source, off = readPoint(data, off)
	f.NextHop, off = readPoint(data, off)
	destCnt := int(data[off])
	off++
	payloadLen := int(binary.BigEndian.Uint16(data[off : off+2]))
	off += 2

	// Both length fields are attacker-controlled; every bound is checked
	// against the actual input before any allocation is sized from them.
	need := destCnt * pointSize
	if f.Flags&FlagPerimeter != 0 {
		need += periSize
	}
	if f.Flags&FlagPrevHop != 0 {
		need += pointSize
	}
	if f.Flags&FlagAnchor != 0 {
		need += pointSize
	}
	if len(data) < off+need {
		return fmt.Errorf("%w: %d dests (flags %#x) need %d bytes, have %d",
			ErrTruncatedDests, destCnt, f.Flags, need, len(data)-off)
	}
	if len(data) < off+need+payloadLen {
		return fmt.Errorf("%w: %d bytes claimed, %d available",
			ErrTruncatedPayload, payloadLen, len(data)-off-need)
	}
	if f.Dests != nil && cap(f.Dests) >= destCnt {
		f.Dests = f.Dests[:destCnt]
	} else {
		f.Dests = make([]geom.Point, destCnt)
	}
	for i := range f.Dests {
		f.Dests[i], off = readPoint(data, off)
	}
	if f.Perimeter() {
		f.PeriTarget, off = readPoint(data, off)
		f.PeriEntry, off = readPoint(data, off)
		f.PeriFaceEntry, off = readPoint(data, off)
	}
	if f.HasPrevHop() {
		f.PeriPrev, off = readPoint(data, off)
	}
	if f.HasAnchor() {
		f.Anchor, off = readPoint(data, off)
	}
	f.Payload = append(f.Payload[:0], data[off:off+payloadLen]...)
	if !f.finite() {
		return ErrNonFinite
	}
	return nil
}

// finite reports whether every point the frame carries is finite.
func (f *Frame) finite() bool {
	ok := finite(f.Source) && finite(f.NextHop)
	for _, d := range f.Dests {
		ok = ok && finite(d)
	}
	if f.Perimeter() {
		ok = ok && finite(f.PeriTarget) && finite(f.PeriEntry) && finite(f.PeriFaceEntry)
	}
	if f.HasPrevHop() {
		ok = ok && finite(f.PeriPrev)
	}
	if f.HasAnchor() {
		ok = ok && finite(f.Anchor)
	}
	return ok
}

// finite reports whether both coordinates are finite at float32, the
// precision they travel at, so a float64 beyond float32's range fails too.
func finite(p geom.Point) bool {
	x, y := float32(p.X), float32(p.Y)
	return x-x == 0 && y-y == 0 // NaN and ±Inf give NaN
}

func appendPoint(b []byte, p geom.Point) []byte {
	b = binary.BigEndian.AppendUint32(b, math.Float32bits(float32(p.X)))
	b = binary.BigEndian.AppendUint32(b, math.Float32bits(float32(p.Y)))
	return b
}

func readPoint(b []byte, off int) (geom.Point, int) {
	x := math.Float32frombits(binary.BigEndian.Uint32(b[off:]))
	y := math.Float32frombits(binary.BigEndian.Uint32(b[off+4:]))
	return geom.Pt(float64(x), float64(y)), off + pointSize
}
