package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func sampleFrame(perimeter bool, ndests, payload int) *Frame {
	f := &Frame{
		Hops:    7,
		Source:  geom.Pt(12.5, 900.25),
		NextHop: geom.Pt(130, 870.5),
		Payload: make([]byte, payload),
	}
	for i := 0; i < ndests; i++ {
		f.Dests = append(f.Dests, geom.Pt(float64(i)*10.5, float64(i)*7.25))
	}
	if perimeter {
		f.Flags |= FlagPerimeter
		f.PeriTarget = geom.Pt(500, 500)
		f.PeriEntry = geom.Pt(100.5, 200.25)
		f.PeriFaceEntry = geom.Pt(150.75, 250)
	}
	for i := range f.Payload {
		f.Payload[i] = byte(i)
	}
	return f
}

// withAnchor sets the anchor extension on f, pointing at its first
// destination when it has one.
func withAnchor(f *Frame) *Frame {
	f.Flags |= FlagAnchor
	if len(f.Dests) > 0 {
		f.Anchor = f.Dests[0]
	} else {
		f.Anchor = geom.Pt(42.5, 17.25)
	}
	return f
}

// withPrevHop sets the previous-hop extension on f.
func withPrevHop(f *Frame) *Frame {
	f.Flags |= FlagPrevHop
	f.PeriPrev = geom.Pt(77.5, 301.75)
	return f
}

func framesEqual(t *testing.T, a, b *Frame) {
	t.Helper()
	if a.Flags != b.Flags || a.Hops != b.Hops {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	pts := func(p, q geom.Point) {
		t.Helper()
		// float32 quantization tolerance
		if math.Abs(p.X-q.X) > 1e-3 || math.Abs(p.Y-q.Y) > 1e-3 {
			t.Fatalf("point mismatch: %v vs %v", p, q)
		}
	}
	pts(a.Source, b.Source)
	pts(a.NextHop, b.NextHop)
	if len(a.Dests) != len(b.Dests) {
		t.Fatalf("dest count %d vs %d", len(a.Dests), len(b.Dests))
	}
	for i := range a.Dests {
		pts(a.Dests[i], b.Dests[i])
	}
	if a.Perimeter() {
		pts(a.PeriTarget, b.PeriTarget)
		pts(a.PeriEntry, b.PeriEntry)
		pts(a.PeriFaceEntry, b.PeriFaceEntry)
	}
	if a.HasPrevHop() {
		pts(a.PeriPrev, b.PeriPrev)
	}
	if a.HasAnchor() {
		pts(a.Anchor, b.Anchor)
	}
	if len(a.Payload) != len(b.Payload) {
		t.Fatalf("payload length %d vs %d", len(a.Payload), len(b.Payload))
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			t.Fatal("payload corrupted")
		}
	}
}

func TestRoundTripGreedy(t *testing.T) {
	f := sampleFrame(false, 5, 16)
	data, err := Encode(f, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != f.EncodedSize() {
		t.Fatalf("size %d != EncodedSize %d", len(data), f.EncodedSize())
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	framesEqual(t, f, got)
}

func TestRoundTripPerimeter(t *testing.T) {
	f := sampleFrame(true, 3, 8)
	data, err := Encode(f, 128)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Perimeter() {
		t.Fatal("PERIMODE lost")
	}
	framesEqual(t, f, got)
}

func TestRoundTripRandomizedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		f := &Frame{
			Hops:    byte(r.Intn(256)),
			Source:  geom.Pt(r.Float64()*1000, r.Float64()*1000),
			NextHop: geom.Pt(r.Float64()*1000, r.Float64()*1000),
		}
		if r.Intn(2) == 1 {
			f.Flags |= FlagPerimeter
			f.PeriTarget = geom.Pt(r.Float64()*1000, r.Float64()*1000)
			f.PeriEntry = geom.Pt(r.Float64()*1000, r.Float64()*1000)
			f.PeriFaceEntry = geom.Pt(r.Float64()*1000, r.Float64()*1000)
		}
		for i, n := 0, r.Intn(8); i < n; i++ {
			f.Dests = append(f.Dests, geom.Pt(r.Float64()*1000, r.Float64()*1000))
		}
		f.Payload = make([]byte, r.Intn(30))
		r.Read(f.Payload)

		data, err := Encode(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		framesEqual(t, f, got)
	}
}

func TestBudgetEnforced(t *testing.T) {
	f := sampleFrame(false, 12, 20)
	if _, err := Encode(f, 64); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Encode(f, 0); err != nil {
		t.Fatalf("budget 0 should disable the check: %v", err)
	}
}

func TestCapacityMatchesEncoder(t *testing.T) {
	// Whatever Capacity promises must actually encode within budget, and
	// one more destination must not.
	for _, perimeter := range []bool{false, true} {
		for _, payload := range []int{0, 16, 64} {
			c := Capacity(128, payload, perimeter)
			if c <= 0 {
				continue
			}
			f := sampleFrame(perimeter, c, payload)
			if _, err := Encode(f, 128); err != nil {
				t.Fatalf("capacity %d (peri=%v payload=%d) does not fit: %v",
					c, perimeter, payload, err)
			}
			f = sampleFrame(perimeter, c+1, payload)
			if _, err := Encode(f, 128); err == nil {
				t.Fatalf("capacity+1 fits (peri=%v payload=%d)", perimeter, payload)
			}
		}
	}
}

func TestCapacityTable1Paper(t *testing.T) {
	// With the paper's 128 B messages and no payload, a greedy frame holds
	// 13 destinations — comfortably above the evaluated k ≤ 25 only when
	// groups split, which is exactly what GMP's grouping does.
	if got := Capacity(128, 0, false); got != 13 {
		t.Fatalf("greedy capacity = %d", got)
	}
	if got := Capacity(128, 0, true); got != 10 {
		t.Fatalf("perimeter capacity = %d", got)
	}
	if Capacity(10, 0, false) != 0 {
		t.Fatal("tiny budget must hold zero dests")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrShortFrame) {
		t.Errorf("nil: %v", err)
	}
	f := sampleFrame(false, 2, 4)
	data, err := Encode(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[1] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
	// A version-1 frame has no previous-hop field; its flag bits would be
	// read under the wrong layout, so it is refused, not reinterpreted.
	bad[1] = 1
	if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version 1: %v", err)
	}
	if _, err := Decode(data[:len(data)-3]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated: %v", err)
	}
}

func TestRoundTripAnchor(t *testing.T) {
	for _, perimeter := range []bool{false, true} {
		f := withAnchor(sampleFrame(perimeter, 4, 8))
		if perimeter {
			withPrevHop(f)
		}
		data, err := Encode(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != f.EncodedSize() {
			t.Fatalf("size %d != EncodedSize %d", len(data), f.EncodedSize())
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.HasAnchor() {
			t.Fatal("anchor flag lost")
		}
		framesEqual(t, f, got)
	}
}

// TestDecodeBoundsOversizedDestCount crafts frames whose destination-count
// byte (and flag bits) claim more header state than the frame carries. The
// decoder must reject them with the typed truncation error before sizing any
// allocation from the lying field.
func TestDecodeBoundsOversizedDestCount(t *testing.T) {
	base := sampleFrame(false, 2, 0)
	data, err := Encode(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	destCntOff := 4 + 2*8 // magic, version, flags, hops, source, next hop
	for _, claim := range []byte{3, 40, 255} {
		bad := append([]byte(nil), data...)
		bad[destCntOff] = claim
		if _, err := Decode(bad); !errors.Is(err, ErrTruncatedDests) {
			t.Errorf("claim %d dests: err = %v, want ErrTruncatedDests", claim, err)
		}
	}
	// Flag bits promising perimeter/anchor state that is not there must
	// trip the same bound.
	for _, flags := range []byte{FlagPerimeter, FlagAnchor, FlagPerimeter | FlagAnchor} {
		bad := append([]byte(nil), data...)
		bad[2] |= flags
		if _, err := Decode(bad); !errors.Is(err, ErrTruncatedDests) {
			t.Errorf("flags %#x: err = %v, want ErrTruncatedDests", flags, err)
		}
	}
}

// TestDecodeBoundsTruncatedPayload crafts frames whose payload-length field
// claims more bytes than remain after the (valid) header.
func TestDecodeBoundsTruncatedPayload(t *testing.T) {
	base := sampleFrame(true, 3, 8)
	data, err := Encode(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	payloadLenOff := 4 + 2*8 + 1 // ... dest count
	for _, claim := range []uint16{9, 1024, 65535} {
		bad := append([]byte(nil), data...)
		bad[payloadLenOff] = byte(claim >> 8)
		bad[payloadLenOff+1] = byte(claim)
		if _, err := Decode(bad); !errors.Is(err, ErrTruncatedPayload) {
			t.Errorf("claim %d payload bytes: err = %v, want ErrTruncatedPayload", claim, err)
		}
	}
	// Both typed errors remain matchable as generic truncation.
	bad := append([]byte(nil), data...)
	bad[payloadLenOff+1] = 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrShortFrame) {
		t.Errorf("typed payload truncation must still match ErrShortFrame: %v", err)
	}
}

func TestTooManyDests(t *testing.T) {
	f := sampleFrame(false, 0, 0)
	f.Dests = make([]geom.Point, 300)
	if _, err := Encode(f, 0); !errors.Is(err, ErrTooManyDests) {
		t.Fatalf("err = %v", err)
	}
}

// TestNonFiniteRefused checks both directions refuse a coordinate that is
// not finite at float32: the encoder for every point a frame or a route
// summary carries, the decoder for every coordinate slot on the wire. The
// signaling NaN 0xffb23030 is the case that used to slip through, decoding
// and then re-encoding as the quiet 0xfff23030.
func TestNonFiniteRefused(t *testing.T) {
	full := func() *Frame { return withPrevHop(withAnchor(sampleFrame(true, 3, 2))) }
	points := func(f *Frame) []*geom.Point {
		ps := []*geom.Point{&f.Source, &f.NextHop}
		for i := range f.Dests {
			ps = append(ps, &f.Dests[i])
		}
		return append(ps, &f.PeriTarget, &f.PeriEntry, &f.PeriFaceEntry, &f.PeriPrev, &f.Anchor)
	}
	sNaN := float64(math.Float32frombits(0xffb23030))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e39, sNaN} {
		for i := range points(full()) {
			f := full()
			points(f)[i].Y = bad
			if _, err := Encode(f, 0); !errors.Is(err, ErrNonFinite) {
				t.Errorf("encode with point %d Y = %v: %v, want ErrNonFinite", i, bad, err)
			}
		}
		d := RouteDoneBody{Outcomes: []DestOutcome{{Node: 3, Loc: geom.Pt(bad, 1)}}}
		if _, err := EncodeRouteDone(d); !errors.Is(err, ErrNonFinite) {
			t.Errorf("route-done with location X = %v: %v, want ErrNonFinite", bad, err)
		}
	}

	good, err := Encode(full(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Source and next hop, then the destinations and the perimeter,
	// previous-hop and anchor points after the count and payload length.
	slots := []int{4, 12}
	for j := 0; j < len(points(full()))-2; j++ {
		slots = append(slots, fixedSize+j*pointSize)
	}
	var f Frame
	for _, off := range slots {
		for _, coord := range []int{off, off + 4} {
			data := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(data[coord:], 0xffb23030)
			if err := DecodeInto(&f, data); !errors.Is(err, ErrNonFinite) {
				t.Errorf("decode with a signaling NaN at byte %d: %v, want ErrNonFinite", coord, err)
			}
		}
	}
	body := routeDone(t, RouteDoneBody{Outcomes: []DestOutcome{{Node: 3, Loc: geom.Pt(1, 2)}}})
	binary.BigEndian.PutUint32(body[14+4:], 0xffb23030) // the outcome's X
	if _, err := DecodeRouteDone(body); !errors.Is(err, ErrNonFinite) {
		t.Errorf("route-done decode with a signaling NaN: %v, want ErrNonFinite", err)
	}
}
