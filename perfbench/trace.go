package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gmp/internal/geom"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// span is one traced interval: a call into a layer of the repository.
// Spans of one request (a task, a script session, a gmpd request) share req.
type span struct {
	name   string
	parent int32 // index of the enclosing span, or -1
	req    int64
	start  int64 // ns since the tracer's origin
	end    int64
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// *tracer means the run is untraced. Safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open starts a span that other spans will name as parent.
func (t *tracer) open(name string, parent int32, req int64) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start})
	return int32(len(t.spans) - 1)
}

// close ends a span started by open.
func (t *tracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int32, req, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start, end: end})
	t.mu.Unlock()
}

// layerTime is one span name's aggregate: how many spans, their summed
// duration (busy, summed across concurrent lanes), and their duration minus
// the part of it their children cover (self).
type layerTime struct {
	count      int
	busy, self time.Duration
}

// layers aggregates the spans by name. A span's self time is its duration
// minus the union of its children's intervals, so children running on two
// lanes at once are not subtracted twice.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		lt.count++
		d := s.end - s.start
		lt.busy += time.Duration(d)
		lt.self += time.Duration(d - covered(children[int32(i)], s.start, s.end))
	}
	return out
}

// union returns the wall time covered by the spans whose name matches.
func (t *tracer) union(match func(name string) bool) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ivs [][2]int64
	for _, s := range t.spans {
		if match(s.name) {
			ivs = append(ivs, [2]int64{s.start, s.end})
		}
	}
	return time.Duration(covered(ivs, 0, 1<<62))
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// write dumps the spans as tab-separated lines:
// id, name, parent, request id, start ns, end ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tparent\treq\tstart_ns\tend_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.parent, s.req, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildInput is one recorded rrSTR construction: what GMP's forwarding step
// hands steiner.Builder.Build at a deciding node.
type buildInput struct {
	source geom.Point
	dests  []steiner.Dest
	opts   steiner.Options
}

// buildRecorder collects GMP decision inputs for the untimed Build replay.
type buildRecorder struct {
	mu     sync.Mutex
	inputs []buildInput
}

func (r *buildRecorder) record(v view.NodeView, pkt *sim.Packet) {
	if pkt.Perimeter {
		return // perimeter recovery does not build a tree
	}
	in := buildInput{source: v.Pos(), opts: steiner.Options{RadioRange: v.Range(), RadioAware: true}}
	in.dests = make([]steiner.Dest, len(pkt.Dests))
	for i, id := range pkt.Dests {
		in.dests[i] = steiner.Dest{Pos: pkt.Locs[i], Label: id}
	}
	r.mu.Lock()
	r.inputs = append(r.inputs, in)
	r.mu.Unlock()
}

// replayUS rebuilds every recorded tree on one Builder and returns the mean
// microseconds per Build.
func (r *buildRecorder) replayUS() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.inputs) == 0 {
		return 0
	}
	var b steiner.Builder
	start := time.Now()
	for _, in := range r.inputs {
		b.Build(in.source, in.dests, in.opts)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(r.inputs))
}

// tracedHandler wraps a protocol instance so every Start, Decide and Nack
// call records a "routing.<name>" span under the run span that covers it.
// It changes no decision: calls pass straight through, and the optional
// engine interfaces (sim.NackHandler, sim.RedundantHandler) are forwarded
// exactly when the wrapped protocol implements them.
type tracedHandler struct {
	inner  routing.Protocol
	t      *tracer
	span   string
	parent int32
	req    int64
	builds *buildRecorder // nil: do not record Build inputs
}

// traceHandler wraps p; see tracedHandler.
func traceHandler(p routing.Protocol, name string, t *tracer, parent int32, req int64, builds *buildRecorder) routing.Protocol {
	h := &tracedHandler{inner: p, t: t, span: "routing." + name, parent: parent, req: req, builds: builds}
	nack, isNack := p.(sim.NackHandler)
	red, isRed := p.(sim.RedundantHandler)
	switch {
	case isNack && isRed:
		return tracedNackRedundant{tracedNack{h, nack}, red}
	case isNack:
		return tracedNack{h, nack}
	case isRed:
		return tracedRedundant{h, red}
	}
	return h
}

func (h *tracedHandler) Name() string { return h.inner.Name() }

func (h *tracedHandler) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if h.builds != nil {
		h.builds.record(v, pkt)
	}
	start := h.t.now()
	out := h.inner.Start(v, pkt)
	h.t.add(h.span, h.parent, h.req, start, h.t.now())
	return out
}

func (h *tracedHandler) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if h.builds != nil {
		h.builds.record(v, pkt)
	}
	start := h.t.now()
	out := h.inner.Decide(v, pkt)
	h.t.add(h.span, h.parent, h.req, start, h.t.now())
	return out
}

type tracedNack struct {
	*tracedHandler
	nack sim.NackHandler
}

func (h tracedNack) Nack(v view.NodeView, to int, pkt *sim.Packet) []sim.Forward {
	start := h.t.now()
	out := h.nack.Nack(v, to, pkt)
	h.t.add(h.span, h.parent, h.req, start, h.t.now())
	return out
}

type tracedRedundant struct {
	*tracedHandler
	red sim.RedundantHandler
}

func (h tracedRedundant) RedundantCopies() bool { return h.red.RedundantCopies() }

type tracedNackRedundant struct {
	tracedNack
	red sim.RedundantHandler
}

func (h tracedNackRedundant) RedundantCopies() bool { return h.red.RedundantCopies() }

// setRoutingLayers reports the routing.* per-layer metrics from the spans.
func setRoutingLayers(rep *report, t *tracer, lt map[string]*layerTime) {
	var busy time.Duration
	var calls int
	for _, p := range paperProtocols {
		l := lt["routing."+p]
		if l == nil {
			continue
		}
		busy += l.busy
		calls += l.count
		rep.set("routing."+p+".busy_s", l.busy.Seconds())
		rep.set("routing."+p+".calls", float64(l.count))
		rep.set("routing."+p+".us_per_call", float64(l.busy.Nanoseconds())/1e3/float64(l.count))
	}
	rep.set("routing.busy_s", busy.Seconds())
	rep.set("routing.wall_s", t.union(func(name string) bool { return strings.HasPrefix(name, "routing.") }).Seconds())
	rep.set("sim.decisions", float64(calls))
}
