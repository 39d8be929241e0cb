package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// An open-loop load generator: request i of a phase is due at
// start + i/rate whatever happened to earlier requests, as independent users
// would send. Latency is charged from the due time, so a stall in the
// generator or the server is also charged to every request queued behind it,
// and how late the generator itself ran is reported. Any answer other than a
// success — SHED, ERROR, a transport error, or no answer within the timeout
// — counts as a failure and as a latency of +Inf, so it misses every limit.

// outcome classifies a request's terminal answer.
type outcome int

const (
	outOK outcome = iota
	outShed
	outError
	outTransport
	outTimeout
)

// sender puts one request on the wire; answers arrive through
// generator.complete.
type sender interface {
	send(id uint64, i int) error
}

// flight is one request awaiting its answer.
type flight struct {
	owner sender
	phase *phase
	i     int // index within the phase
	due   time.Time
	bytes int // answer bytes received so far (all messages of the request)
	msgs  int
}

// phase is one fixed-rate stretch of load and its results.
type phase struct {
	rate    float64
	n       int
	timeout time.Duration

	lat      []float64 // ms from due time; +Inf for failures (open loop only)
	outcomes [numOutcomes]int
	late     []float64 // ms the generator sent after the due time (open loop only)
	bytesIn  int64
	msgsIn   int64

	completed  atomic.Int64
	backlogMax atomic.Int64
	backlogMid int64 // when request n/2 went out
	backlogEnd int64 // when the last request went out
	start      time.Time
	end        time.Time // last answer
	done       chan struct{}
	// slots bounds each sender's requests in flight in a closed-loop
	// phase (nil in an open-loop phase).
	slots map[sender]chan struct{}
	// slices are a closed-loop phase's answer rates over tenths of it.
	slices []float64
}

const numOutcomes = int(outTimeout) + 1

// generator tracks in-flight requests across phases. Safe for concurrent
// use by senders and the readers that complete their requests.
type generator struct {
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*flight
	expired map[uint64]sender // timed out, not yet answered; value is the owner
	// dupes counts answers for requests that were already answered: the
	// exactly-once check.
	dupes int
}

func newGenerator() *generator {
	return &generator{pending: map[uint64]*flight{}, expired: map[uint64]sender{}}
}

// observe credits answer bytes to an in-flight request (a streamed route
// answers with many messages).
func (g *generator) observe(id uint64, bytes int) {
	g.mu.Lock()
	if f := g.pending[id]; f != nil {
		f.bytes += bytes
		f.msgs++
	}
	g.mu.Unlock()
}

// complete records a request's terminal answer and reports whether the
// request was still pending (false for an answer after its timeout).
func (g *generator) complete(id uint64, out outcome, bytes int) bool {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.pending[id]
	if f == nil {
		if _, ok := g.expired[id]; ok {
			delete(g.expired, id)
		} else {
			g.dupes++
		}
		return false
	}
	g.finish(id, f, out, bytes, now)
	return true
}

// abort fails a request whose send failed, unless the loss of its
// connection already did.
func (g *generator) abort(id uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.pending[id]; f != nil {
		g.finish(id, f, outTransport, 0, time.Now())
	}
}

// lost fails every request still awaiting an answer on owner, whose
// connection is gone (a server evicts a client that reads too slowly).
func (g *generator) lost(owner sender) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, f := range g.pending {
		if f.owner == owner {
			g.finish(id, f, outTransport, 0, now)
		}
	}
	for id, o := range g.expired {
		if o == owner {
			delete(g.expired, id)
		}
	}
}

// finish records a pending request's terminal outcome; g.mu is held.
func (g *generator) finish(id uint64, f *flight, out outcome, bytes int, now time.Time) {
	delete(g.pending, id)
	f.bytes += bytes
	f.msgs++
	ph := f.phase
	lat := now.Sub(f.due)
	if out == outOK && lat > ph.timeout {
		out = outTimeout
	}
	ph.outcomes[out]++
	if ph.lat != nil {
		ph.lat[f.i] = math.Inf(1)
		if out == outOK {
			ph.lat[f.i] = float64(lat.Nanoseconds()) / 1e6
		}
	}
	ph.bytesIn += int64(f.bytes)
	ph.msgsIn += int64(f.msgs)
	if now.After(ph.end) {
		ph.end = now
	}
	if ph.slots != nil {
		<-ph.slots[f.owner] // never blocks: the request holds this slot
	}
	if ph.completed.Add(1) == int64(ph.n) {
		close(ph.done)
	}
}

// run offers n requests at rate across the senders (request i goes to
// sender i mod len) and waits until every one is answered or timed out.
func (g *generator) run(senders []sender, rate float64, n int, timeout time.Duration) *phase {
	ph := &phase{rate: rate, n: n, timeout: timeout, lat: make([]float64, n),
		late: make([]float64, n), done: make(chan struct{})}
	for i := range ph.lat {
		ph.lat[i] = math.Inf(1)
	}
	ph.start = time.Now()
	ph.end = ph.start
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for s, snd := range senders {
		wg.Add(1)
		go func(s int, snd sender) {
			defer wg.Done()
			for i := s; i < n; i += len(senders) {
				due := ph.start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ph.late[i] = max(0, float64(time.Since(due).Nanoseconds())/1e6)
				b := int64(i+1) - ph.completed.Load()
				if b > ph.backlogMax.Load() {
					ph.backlogMax.Store(b)
				}
				if i == n/2 {
					ph.backlogMid = b
				}
				id := g.nextID.Add(1)
				g.mu.Lock()
				g.pending[id] = &flight{owner: snd, phase: ph, i: i, due: due}
				g.mu.Unlock()
				if err := snd.send(id, i); err != nil {
					g.abort(id)
				}
			}
		}(s, snd)
	}
	wg.Wait()
	ph.backlogEnd = int64(n) - ph.completed.Load()
	lastDue := ph.start.Add(time.Duration(n-1) * interval)
	select {
	case <-ph.done:
	case <-time.After(time.Until(lastDue.Add(timeout))):
	}
	g.mu.Lock()
	for id, f := range g.pending {
		if f.phase == ph {
			delete(g.pending, id)
			g.expired[id] = f.owner
			ph.outcomes[outTimeout]++
		}
	}
	g.mu.Unlock()
	return ph
}

// runClosed keeps window requests in flight on every sender for dur: each
// answer lets the next request go at once, so the daemon runs saturated
// without an unbounded queue. It counts outcomes and answer rates over
// tenths of the phase, but keeps no per-request latency.
func (g *generator) runClosed(senders []sender, window int, dur, timeout time.Duration) *phase {
	ph := &phase{n: math.MaxInt, timeout: timeout, done: make(chan struct{}), slots: map[sender]chan struct{}{}}
	for _, snd := range senders {
		ph.slots[snd] = make(chan struct{}, window)
	}
	ph.start = time.Now()
	ph.end = ph.start
	stop := make(chan struct{})
	sent := 0 // guarded by g.mu
	timer := time.AfterFunc(dur, func() { close(stop) })
	defer timer.Stop()
	var wg sync.WaitGroup
	for _, snd := range senders {
		wg.Add(1)
		go func(snd sender) {
			defer wg.Done()
			for {
				select {
				case ph.slots[snd] <- struct{}{}:
				case <-stop:
					return
				}
				select {
				case <-stop:
					<-ph.slots[snd]
					return
				default:
				}
				id := g.nextID.Add(1)
				g.mu.Lock()
				i := sent
				sent++
				g.pending[id] = &flight{owner: snd, phase: ph, i: i, due: time.Now()}
				g.mu.Unlock()
				if err := snd.send(id, i); err != nil {
					g.abort(id)
					return // the connection is gone; load the others
				}
			}
		}(snd)
	}
	ph.slices = sampleRates(&ph.completed, ph.start, dur, 10)
	wg.Wait()
	g.mu.Lock()
	total := int64(sent)
	g.mu.Unlock()
	for deadline := time.Now().Add(timeout); ph.completed.Load() < total && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	ph.n = int(total)
	for id, f := range g.pending {
		if f.phase == ph {
			delete(g.pending, id)
			g.expired[id] = f.owner
			ph.outcomes[outTimeout]++
		}
	}
	g.mu.Unlock()
	ph.rate = float64(ph.n) / dur.Seconds()
	return ph
}

// failed counts the phase's failed requests.
func (ph *phase) failed() int { return ph.n - ph.outcomes[outOK] }

// okRate is the rate of successful answers over the phase, from its first
// due time to its last answer.
func (ph *phase) okRate() float64 {
	return float64(ph.outcomes[outOK]) / ph.end.Sub(ph.start).Seconds()
}

// meets reports whether the phase kept its tail latency within limit
// without a growing backlog.
func (ph *phase) meets(limit time.Duration) bool {
	return tail(ph.lat) <= float64(limit.Nanoseconds())/1e6 && !ph.growing(limit)
}

// growing reports whether the backlog grew over the second half of the
// phase by more than half a limit's worth of requests.
func (ph *phase) growing(limit time.Duration) bool {
	return float64(ph.backlogEnd-ph.backlogMid) > ph.rate*limit.Seconds()/2
}

func (ph *phase) String() string {
	return fmt.Sprintf("rate %.0f/s n=%d ok=%d shed=%d err=%d transport=%d timeout=%d p50=%.3fms p99=%.3fms late_p99=%.3fms backlog max=%d mid=%d end=%d ok/s=%.1f",
		ph.rate, ph.n, ph.outcomes[outOK], ph.outcomes[outShed], ph.outcomes[outError], ph.outcomes[outTransport],
		ph.outcomes[outTimeout], quantile(ph.lat, 0.5), quantile(ph.lat, 0.99), quantile(ph.late, 0.99),
		ph.backlogMax.Load(), ph.backlogMid, ph.backlogEnd, ph.okRate())
}
