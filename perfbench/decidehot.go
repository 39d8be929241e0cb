package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gmp/internal/geom"
	"gmp/internal/serve"
	"gmp/internal/wire"
)

// decide-hot: independent DECIDE requests at K = 8. Most repeat a frame
// from a pool recorded in set-up by walking fixed groups per hop; the pool
// is smaller than the daemon's memo cache, so most requests hit it. A fixed
// share are fresh start frames, which keeps the miss path live.

const (
	decideK        = 8
	decideGroups   = 48   // groups walked per hop to record the pool
	decidePoolMax  = 2048 // below serve.DefaultCacheSize
	decideFreshPct = 5    // percent of requests that are fresh frames
	decideHopLimit = 100  // per-copy hop budget of the recording walk
)

var decideLoad = gmpdLoad{
	lo:      2000,
	hi:      40000,
	limit:   20 * time.Millisecond,
	timeout: 3 * time.Second,
	window:  1,
}

func runDecideHot(opt options, rep *report) error {
	return runGmpd(opt, rep, decideLoad, func() gmpdWorkload { return &decideHot{seed: opt.seed} })
}

type decideHot struct {
	seed int64
	d    *daemon
	pool []pooled
	next atomic.Uint64

	mu     sync.Mutex
	tags   map[uint64]int   // request ID → pool index, -1 for a fresh frame
	first  map[int][]byte   // pool index → first FORWARDS body seen
	differ map[int]struct{} // pool indexes whose answers were not byte-identical
}

// pooled is one recorded decision request.
type pooled struct {
	op    byte
	frame *wire.Frame
}

// fill walks decideGroups groups per hop through the daemon and records
// every decision request on the way.
func (h *decideHot) fill(d *daemon) error {
	h.d = d
	h.tags, h.first, h.differ = map[uint64]int{}, map[int][]byte{}, map[int]struct{}{}
	c, err := serve.Dial(d.addr, gmpdProto, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	nw := d.dep.NW
	type hop struct {
		op    byte
		frame []byte
		hops  int
	}
	for g := 0; g < decideGroups && len(h.pool) < decidePoolMax; g++ {
		perm := seeded(h.seed, streamPool, int64(g)).Perm(nw.Len())
		f := &wire.Frame{Source: nw.Pos(perm[0]), NextHop: nw.Pos(perm[0])}
		for _, id := range perm[1 : 1+decideK] {
			f.Dests = append(f.Dests, nw.Pos(id))
		}
		start, err := wire.Encode(f, 0)
		if err != nil {
			return err
		}
		queue := []hop{{op: wire.OpStart, frame: start}}
		for q := 0; q < len(queue) && len(h.pool) < decidePoolMax; q++ {
			cur := queue[q]
			fr, err := wire.Decode(cur.frame)
			if err != nil {
				return err
			}
			h.pool = append(h.pool, pooled{op: cur.op, frame: fr})
			rep, err := c.Do(wire.DecideBody{Op: cur.op, Frame: cur.frame})
			if err != nil {
				return err
			}
			if rep.Kind != wire.MsgForwards {
				return fmt.Errorf("pool walk: group %d answered %s", g, wire.MsgName(rep.Kind))
			}
			for _, fw := range rep.Forwards {
				if fw.To >= 0 && cur.hops+1 <= decideHopLimit {
					queue = append(queue, hop{op: wire.OpDecide, frame: fw.Frame, hops: cur.hops + 1})
				}
			}
		}
	}
	return nil
}

// mix is splitmix64: a cheap, seedable per-request choice.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (h *decideHot) build(id uint64, _ int) (byte, []byte) {
	n := h.next.Add(1)
	x := mix(uint64(h.seed)<<32 ^ n)
	tag, op := -1, wire.OpStart
	var f *wire.Frame
	if x%100 < decideFreshPct {
		nw := h.d.dep.NW
		pick := func(i uint64) geom.Point { return nw.Pos(int(mix(x+i) % uint64(nw.Len()))) }
		f = &wire.Frame{Source: pick(0)}
		f.NextHop = f.Source
		for i := uint64(1); i <= decideK; i++ {
			f.Dests = append(f.Dests, pick(i))
		}
	} else {
		tag = int(mix(x) % uint64(len(h.pool)))
		op, f = h.pool[tag].op, h.pool[tag].frame
	}
	frame, err := wire.Encode(f, 0)
	if err != nil {
		panic(fmt.Sprintf("decide frame does not encode: %v", err)) // frames come from the daemon or K = 8
	}
	h.mu.Lock()
	h.tags[id] = tag
	h.mu.Unlock()
	return wire.MsgDecide, wire.EncodeDecide(wire.DecideBody{Op: op, Frame: frame})
}

// answer checks that every answer to a pooled frame is byte-identical to
// the first one.
func (h *decideHot) answer(id uint64, m wire.Msg, _ any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	tag, ok := h.tags[id]
	delete(h.tags, id)
	if !ok || tag < 0 || m.Type != wire.MsgForwards {
		return
	}
	if prev, seen := h.first[tag]; !seen {
		h.first[tag] = m.Body
	} else if !bytes.Equal(prev, m.Body) {
		h.differ[tag] = struct{}{}
	}
}

func (h *decideHot) check(d *daemon, rep *report) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep.check(len(h.differ) == 0, "%d pooled frames got answers that differ byte-wise", len(h.differ))
	rep.check(len(h.first) > 0, "no pooled frame was answered")
	return nil
}

func (h *decideHot) layers(*daemon, *report, *tracer, *phase, float64) error { return nil }
