package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"gmp/internal/geom"
)

// routeDone encodes d, failing tb if it is refused.
func routeDone(tb testing.TB, d RouteDoneBody) []byte {
	tb.Helper()
	b, err := EncodeRouteDone(d)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestRouteRoundTrip(t *testing.T) {
	r := RouteBody{Budget: 64, Flags: RouteQuiet, Frame: []byte{1, 2, 3, 4}}
	got, err := DecodeRoute(EncodeRoute(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Budget != r.Budget || got.Flags != r.Flags || !bytes.Equal(got.Frame, r.Frame) {
		t.Fatalf("%+v != %+v", got, r)
	}
	// A zero budget (server default) and empty frame round-trip too; frame
	// validity is the worker's problem, not the codec's.
	if got, err := DecodeRoute(EncodeRoute(RouteBody{})); err != nil ||
		got.Budget != 0 || got.Flags != 0 || len(got.Frame) != 0 {
		t.Fatalf("zero route: %+v, %v", got, err)
	}
	for _, short := range [][]byte{nil, {0}, {0, 1}} {
		if _, err := DecodeRoute(short); !errors.Is(err, ErrShortBody) {
			t.Errorf("short route %v: %v", short, err)
		}
	}
}

func TestHopRoundTrip(t *testing.T) {
	hops := []HopBody{
		{Seq: 0, From: 3, To: 17, Frame: []byte{9, 9, 9}},
		{Seq: 4_000_000_000, From: 0, To: -1, Frame: nil}, // drop sentinel
		{Seq: 7, From: 12, To: -2, Frame: []byte{1}},      // watchdog sentinel
	}
	for i, h := range hops {
		got, err := DecodeHop(EncodeHop(h))
		if err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		if got.Seq != h.Seq || got.From != h.From || got.To != h.To || !bytes.Equal(got.Frame, h.Frame) {
			t.Fatalf("hop %d: %+v != %+v", i, got, h)
		}
	}
	// AppendHop into a shared arena encodes identically to EncodeHop.
	arena := []byte{0xAA, 0xBB}
	if got := AppendHop(arena, hops[0]); !bytes.Equal(got[2:], EncodeHop(hops[0])) {
		t.Fatal("AppendHop != EncodeHop")
	}
	for _, short := range [][]byte{nil, {1}, make([]byte, 11)} {
		if _, err := DecodeHop(short); !errors.Is(err, ErrShortBody) {
			t.Errorf("short hop len %d: %v", len(short), err)
		}
	}
}

func TestRouteDoneRoundTrip(t *testing.T) {
	// Locations are float32 on the wire; draw float32-exact values so the
	// comparison can demand equality.
	pt := func(x, y float64) geom.Point { return geom.Pt(float64(float32(x)), float64(float32(y))) }
	d := RouteDoneBody{
		Hops:      912,
		Decisions: 400,
		CacheHits: 123,
		Outcomes: []DestOutcome{
			{Node: 7, Loc: pt(101.5, 33.25), Status: RouteDelivered, Hops: 12},
			{Node: 90, Loc: pt(0.125, 999), Status: RouteDropStranded},
			{Node: -1, Loc: pt(-4, -8.5), Status: RouteDropHopBudget},
		},
	}
	got, err := DecodeRouteDone(routeDone(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if got.Hops != d.Hops || got.Decisions != d.Decisions || got.CacheHits != d.CacheHits {
		t.Fatalf("totals: %+v != %+v", got, d)
	}
	if len(got.Outcomes) != len(d.Outcomes) {
		t.Fatalf("outcome count %d != %d", len(got.Outcomes), len(d.Outcomes))
	}
	for i := range d.Outcomes {
		if got.Outcomes[i] != d.Outcomes[i] {
			t.Fatalf("outcome %d: %+v != %+v", i, got.Outcomes[i], d.Outcomes[i])
		}
	}
	// A walk with every destination co-located at the source has no hops and
	// still terminates with a well-formed summary.
	if got, err := DecodeRouteDone(routeDone(t, RouteDoneBody{})); err != nil || len(got.Outcomes) != 0 {
		t.Fatalf("empty route-done: %+v, %v", got, err)
	}
}

// TestRouteDoneBounds verifies the attacker-controlled outcome count cannot
// size an allocation past the body it arrived in.
func TestRouteDoneBounds(t *testing.T) {
	body := routeDone(t, RouteDoneBody{Outcomes: []DestOutcome{{Node: 1}}})
	bad := append([]byte(nil), body...)
	binary.BigEndian.PutUint16(bad[12:], 0xFFFF) // claim 65535 outcomes with one present
	if _, err := DecodeRouteDone(bad); !errors.Is(err, ErrShortBody) {
		t.Errorf("lying outcome count: %v", err)
	}
	for _, cut := range []int{0, 5, 13, len(body) - 1} {
		if _, err := DecodeRouteDone(body[:cut]); !errors.Is(err, ErrShortBody) {
			t.Errorf("cut at %d: %v", cut, err)
		}
	}
}

// TestRouteEnvelope verifies the session reader accepts the three new
// message types end to end, and that their names render.
func TestRouteEnvelope(t *testing.T) {
	msgs := []Msg{
		{Type: MsgRoute, ID: 21, Body: EncodeRoute(RouteBody{Budget: 32, Frame: []byte{5}})},
		{Type: MsgHop, ID: 21, Body: EncodeHop(HopBody{Seq: 0, From: 1, To: 2})},
		{Type: MsgRouteDone, ID: 21, Body: routeDone(t, RouteDoneBody{Hops: 1})},
	}
	var stream []byte
	for _, m := range msgs {
		stream = AppendMsg(stream, m)
	}
	r := bytes.NewReader(stream)
	for i, want := range msgs {
		got, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("msg %d: %+v != %+v", i, got, want)
		}
	}
	for _, tc := range []struct {
		t    byte
		want string
	}{
		{MsgRoute, "ROUTE"}, {MsgHop, "HOP"}, {MsgRouteDone, "ROUTE_DONE"},
	} {
		if got := MsgName(tc.t); got != tc.want {
			t.Errorf("MsgName(%d) = %q", tc.t, got)
		}
	}
	if RouteStatusName(RouteDelivered) != "delivered" ||
		RouteStatusName(RouteDropProtocol) != "drop-protocol" ||
		RouteStatusName(RouteDropWatchdog) != "drop-watchdog" ||
		RouteStatusName(RouteDropHopBudget) != "drop-hop-budget" ||
		RouteStatusName(RouteDropStranded) != "drop-stranded" ||
		RouteStatusName(RouteDropInvalid) != "drop-invalid-send" ||
		RouteStatusName(0x60) != "status96" {
		t.Error("route status names")
	}
}

// TestDecodeIntoReuse verifies the reusing decoder is state-clean: stale
// perimeter/anchor fields from a previous decode never leak into a later
// frame, and the destination/payload backing arrays are actually reused.
func TestDecodeIntoReuse(t *testing.T) {
	rich := withPrevHop(withAnchor(sampleFrame(true, 6, 32)))
	richBytes, err := Encode(rich, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain := sampleFrame(false, 2, 4)
	plainBytes, err := Encode(plain, 0)
	if err != nil {
		t.Fatal(err)
	}

	var f Frame
	if err := DecodeInto(&f, richBytes); err != nil {
		t.Fatal(err)
	}
	backing := &f.Dests[0]
	if err := DecodeInto(&f, plainBytes); err != nil {
		t.Fatal(err)
	}
	if f.Perimeter() || f.HasAnchor() || f.HasPrevHop() {
		t.Fatalf("stale flags survived: %#x", f.Flags)
	}
	if (f.PeriTarget != geom.Point{}) || (f.PeriPrev != geom.Point{}) || (f.Anchor != geom.Point{}) {
		t.Fatalf("stale perimeter/anchor state survived: %+v", f)
	}
	if &f.Dests[0] != backing {
		t.Error("destination backing array was not reused")
	}
	// The reused decode must byte-match a fresh one.
	re, err := Encode(&f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, plainBytes) {
		t.Fatal("reused decode re-encodes differently from a fresh decode")
	}
}

// FuzzDecodeRoute drives the three route-op decoders with arbitrary bodies:
// they must never panic or over-allocate, and anything they accept must
// survive a re-encode byte-for-byte.
func FuzzDecodeRoute(f *testing.F) {
	f.Add([]byte(nil), []byte(nil), []byte(nil))
	f.Add(EncodeRoute(RouteBody{Budget: 9, Flags: RouteQuiet, Frame: []byte{1, 2}}),
		EncodeHop(HopBody{Seq: 5, From: 1, To: -1, Frame: []byte{3}}),
		routeDone(f, RouteDoneBody{Hops: 3, Decisions: 2, Outcomes: []DestOutcome{{Node: 4, Status: RouteDelivered, Hops: 2}}}))
	bad := routeDone(f, RouteDoneBody{Outcomes: make([]DestOutcome, 3)})
	binary.BigEndian.PutUint16(bad[12:], 0x7FFF)
	f.Add([]byte{0, 0}, make([]byte, 11), bad)
	// A signaling-NaN outcome location: refused, since widening would quiet it.
	snan := routeDone(f, RouteDoneBody{Outcomes: []DestOutcome{{Node: 4, Loc: geom.Pt(1, 2)}}})
	binary.BigEndian.PutUint32(snan[14+4:], 0xffb23030)
	f.Add([]byte(nil), []byte(nil), snan)

	f.Fuzz(func(t *testing.T, routeBody, hopBody, doneBody []byte) {
		if r, err := DecodeRoute(routeBody); err == nil {
			if !bytes.Equal(EncodeRoute(r), routeBody) {
				t.Fatal("route re-encode mismatch")
			}
		}
		if h, err := DecodeHop(hopBody); err == nil {
			if !bytes.Equal(EncodeHop(h), hopBody) {
				t.Fatal("hop re-encode mismatch")
			}
		}
		if d, err := DecodeRouteDone(doneBody); err == nil {
			re, err := EncodeRouteDone(d)
			if err != nil {
				t.Fatalf("decoded route-done does not re-encode: %v", err)
			}
			// Trailing garbage after the last outcome is legal for a lenient
			// reader; the re-encode covers exactly the decoded prefix.
			if !bytes.Equal(re, doneBody[:len(re)]) {
				t.Fatal("route-done re-encode mismatch")
			}
		}
	})
}
