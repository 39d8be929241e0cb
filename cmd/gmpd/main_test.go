package main

import (
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/serve"
	"gmp/internal/wire"
)

// TestDaemonServeAndDrain boots the daemon on a small field, runs a real
// session against it, then triggers the signal path and checks the drain
// report: exit is clean (nil error), the accounting is printed, and the
// conservation line never fires.
func TestDaemonServeAndDrain(t *testing.T) {
	var out strings.Builder
	var mu sync.Mutex // out is written by the daemon goroutine, read at the end
	w := lockedWriter{mu: &mu, b: &out}

	stop := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-nodes", "150", "-width", "500", "-height", "500", "-range", "100",
		}, w, stop, func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	c, err := serve.Dial(addr, "GMP", 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	f := &wire.Frame{Source: geom.Pt(100, 100), NextHop: geom.Pt(100, 100),
		Dests: []geom.Point{geom.Pt(400, 400), geom.Pt(50, 420)}}
	data, err := wire.Encode(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Do(wire.DecideBody{Op: wire.OpStart, Frame: data})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if rep.Kind != wire.MsgForwards || len(rep.Forwards) == 0 {
		t.Fatalf("want FORWARDS with hops, got kind %d forwards %d", rep.Kind, len(rep.Forwards))
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}

	mu.Lock()
	got := out.String()
	mu.Unlock()
	for _, want := range []string{"gmpd: serving 150 nodes", "drained in", "admitted 1", "forwards 1"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "CONSERVATION VIOLATION") {
		t.Errorf("conservation violated:\n%s", got)
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-planarizer", "delaunay"}, &out, nil, nil); err == nil {
		t.Fatal("want error for unknown planarizer")
	}
}

// TestLambdaOutOfRangeRefused pins that gmpd never answers at a λ it was
// not given: λ = 0 (which serve.Config reads as "the default"), a
// non-finite λ and one above 1 are usage errors, refused before anything
// listens.
func TestLambdaOutOfRangeRefused(t *testing.T) {
	for _, lambda := range []string{"0", "NaN", "2"} {
		stop := make(chan os.Signal, 1)
		listening := make(chan struct{}, 1)
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-lambda", lambda, "-addr", "127.0.0.1:0"}, io.Discard, stop,
				func(string) { listening <- struct{}{} })
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "-lambda") {
				t.Errorf("-lambda %s: got %v, want a -lambda usage error", lambda, err)
			}
		case <-listening:
			stop <- os.Interrupt
			t.Errorf("-lambda %s: gmpd started serving", lambda)
		}
	}
}

// TestNonFiniteDeploymentRefused pins that an infinite field dimension, or
// a finite one too large for the cell grid, is refused as a deployment
// error before anything listens; both used to panic while sizing the grid.
func TestNonFiniteDeploymentRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-width", "Inf"},
		{"-height", "+Inf"},
		{"-range", "Inf"},
		{"-width", "1e300"},
	} {
		var out strings.Builder
		err := run(append(args, "-addr", "127.0.0.1:0"), &out, nil, nil)
		if !errors.Is(err, network.ErrBadDimensions) && !errors.Is(err, network.ErrBadRange) {
			t.Errorf("%v: got %v, want a network range or dimension error", args, err)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
