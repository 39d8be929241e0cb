package main

import (
	"net"
	"strings"
	"testing"

	"gmp/internal/planar"
	"gmp/internal/serve"
)

// startDaemon serves a 150-node field in-process until the test ends and
// returns its address.
func startDaemon(t *testing.T) string {
	t.Helper()
	dep, err := serve.NewDeployment(serve.DeployConfig{
		Nodes: 150, Width: 500, Height: 500, RadioRange: 100,
		Planarizer: planar.Gabriel, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(dep, serve.Config{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Drain() })
	return ln.Addr().String()
}

// TestLoadAgainstDaemon runs the generator against an in-process server and
// checks the rendered ledger: every offered request answered as FORWARDS,
// latency percentiles present, no transport errors.
func TestLoadAgainstDaemon(t *testing.T) {
	addr := startDaemon(t)

	var out strings.Builder
	err := run([]string{
		"-addr", addr,
		"-conns", "2", "-n", "5", "-k", "3",
		"-width", "500", "-height", "500",
		"-timeout", "10s",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"10 answered", "forwards 10", "transport-errors 0", "latency p50"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRouteAgainstDaemon drives both whole-route modes against one daemon
// and checks the route ledger renders: completed routes, hops, per-route
// latency. The same seed walks the same routes, so perhop must report the
// same transmissions the stream summaries did.
func TestRouteAgainstDaemon(t *testing.T) {
	addr := startDaemon(t)

	for _, mode := range []string{"stream", "perhop"} {
		var out strings.Builder
		err := run([]string{
			"-addr", addr,
			"-route", mode,
			"-conns", "2", "-n", "3", "-k", "4",
			"-width", "500", "-height", "500",
			"-timeout", "10s",
		}, &out)
		if err != nil {
			t.Fatalf("run -route %s: %v\n%s", mode, err, out.String())
		}
		got := out.String()
		for _, want := range []string{"6 routes", "transport-errors 0", "route latency p50"} {
			if !strings.Contains(got, want) {
				t.Errorf("-route %s output missing %q:\n%s", mode, want, got)
			}
		}
	}
}

// TestPerHopRefusalIsCounted: the daemon refuses per-hop DECIDEs of a
// redundant protocol (MCFR), so every per-hop walk ends in an ERROR answer
// and must be ledgered as one, never as a completed route. Streamed, the
// same routes complete.
func TestPerHopRefusalIsCounted(t *testing.T) {
	addr := startDaemon(t)
	for _, tc := range []struct {
		mode string
		want []string
	}{
		{"perhop", []string{"gmpload: 0 routes", "errors 5 "}},
		{"stream", []string{"gmpload: 5 routes", "errors 0 "}},
	} {
		var out strings.Builder
		err := run([]string{
			"-addr", addr, "-protocol", "MCFR",
			"-route", tc.mode, "-conns", "1", "-n", "5", "-k", "5",
			"-width", "500", "-height", "500", "-timeout", "10s",
		}, &out)
		if err != nil {
			t.Fatalf("run -route %s: %v\n%s", tc.mode, err, out.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-route %s output missing %q:\n%s", tc.mode, want, out.String())
			}
		}
	}
}

func TestBadRouteMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-route", "sideways"}, &out); err == nil {
		t.Fatal("want error for unknown -route mode")
	}
}

func TestNoDaemon(t *testing.T) {
	// A port nothing listens on: every dial fails, and that must be an error,
	// not a silent zero-row report.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var out strings.Builder
	if err := run([]string{"-addr", addr, "-conns", "1", "-n", "1", "-timeout", "500ms"}, &out); err == nil {
		t.Fatalf("want error when no daemon listens:\n%s", out.String())
	}
}
