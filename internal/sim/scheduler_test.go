package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// drain pops ln's queue to empty, advancing the lane clock as the kernel
// does, and returns the popped events in order.
func drain(ln *lane) []event {
	var out []event
	for len(ln.q) > 0 {
		ev := ln.q.pop()
		if ev.time > ln.now {
			ln.now = ev.time
		}
		out = append(out, ev)
	}
	return out
}

func TestSchedulerOrdering(t *testing.T) {
	var ln lane
	for _, tm := range []float64{3, 1, 2} {
		ln.schedule(event{time: tm, from: int(tm)})
	}
	got := drain(&ln)
	for i, want := range []int{1, 2, 3} {
		if got[i].from != want {
			t.Fatalf("order = %+v", got)
		}
	}
	if ln.now != 3 {
		t.Fatalf("now = %v", ln.now)
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	var ln lane
	for i := 0; i < 10; i++ {
		ln.schedule(event{time: 5, from: i})
	}
	for i, ev := range drain(&ln) {
		if ev.from != i {
			t.Fatalf("same-time events not FIFO: event %d is %d", i, ev.from)
		}
	}
}

// TestSchedulerPastClamped: a session scheduled before the clock's
// origin starts at time 0, in scheduling order behind the crash of its
// source scheduled at 0 — the clock never runs backwards. Unclamped, the
// start would pop first and the source would send before it crashed.
func TestSchedulerPastClamped(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if err := e.SetFaults(FaultPlan{Crashes: []Crash{{Node: 0, At: 0}}}); err != nil {
		t.Fatal(err)
	}
	m := e.RunScript([]Session{{Start: -1, Handler: chainHandler{}, Src: 0, Dests: []int{3}}})[0]
	if len(m.Delivered) != 0 || m.Transmissions != 0 || m.DropsByReason[ReasonSenderCrashed] != 1 {
		t.Fatalf("past-start session sent before its source crashed: %+v", m)
	}
	if m.StartTime != -1 {
		t.Fatalf("StartTime = %v, want the scripted -1", m.StartTime)
	}
}

// containerHeapQueue is the container/heap implementation the hand-rolled
// eventHeap replaced, kept as the reference for the randomized equivalence
// test below.
type containerHeapQueue []event

func (q containerHeapQueue) Len() int            { return len(q) }
func (q containerHeapQueue) Less(i, j int) bool  { return q[i].before(&q[j]) }
func (q containerHeapQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *containerHeapQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *containerHeapQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// TestEventQueueMatchesContainerHeap proves the hand-rolled event heap pops
// in exactly the order a container/heap version does: (time, tile, seq) is a
// strict total order, so the sequences must match element for element under
// any interleaving of pushes and pops.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		var got eventHeap
		var want containerHeapQueue
		var seq int64
		for op := 0; op < 400; op++ {
			if len(want) > 0 && r.Intn(3) == 0 {
				g := got.pop()
				w := heap.Pop(&want).(event)
				if g.time != w.time || g.tile != w.tile || g.seq != w.seq {
					t.Fatalf("trial %d op %d: popped (%v,%d,%d), container/heap popped (%v,%d,%d)",
						trial, op, g.time, g.tile, g.seq, w.time, w.tile, w.seq)
				}
				continue
			}
			// Coarse times and few tiles force frequent exact ties so the
			// tile and seq tie-breaks are exercised, not just the time order.
			e := event{time: float64(r.Intn(20)), tile: int32(r.Intn(3)), seq: seq}
			seq++
			got.push(e)
			heap.Push(&want, e)
		}
		for len(want) > 0 {
			g := got.pop()
			w := heap.Pop(&want).(event)
			if g.time != w.time || g.tile != w.tile || g.seq != w.seq {
				t.Fatalf("trial %d drain: popped (%v,%d,%d), want (%v,%d,%d)",
					trial, g.time, g.tile, g.seq, w.time, w.tile, w.seq)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d events left in hand-rolled heap", trial, len(got))
		}
	}
}
