package main

import (
	"strings"
	"testing"

	"gmp/internal/routing"
)

// TestTraceAllProtocols traces every registered protocol, MCFR and the
// GMP ablations included: gmptrace has no per-protocol wiring of its own.
func TestTraceAllProtocols(t *testing.T) {
	for _, proto := range routing.Names() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			var b strings.Builder
			err := run([]string{
				"-protocol", proto, "-nodes", "400", "-k", "3", "-seed", "9",
			}, &b)
			if err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, "source ") || !strings.Contains(out, "transmissions:") {
				t.Fatalf("trace output incomplete:\n%s", out)
			}
		})
	}
}

func TestTraceShowsHops(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nodes", "400", "-k", "2", "-seed", "4"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "#001") {
		t.Fatalf("no numbered transmissions:\n%s", out)
	}
	if !strings.Contains(out, "delivered ") {
		t.Fatalf("no delivery lines:\n%s", out)
	}
}

func TestTraceDOTAndJSONModes(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nodes", "300", "-k", "2", "-seed", "4", "-dot"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "digraph multicast") {
		t.Fatalf("dot output:\n%.80s", b.String())
	}
	b.Reset()
	if err := run([]string{"-nodes", "300", "-k", "2", "-seed", "4", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"transmissions"`) {
		t.Fatalf("json output:\n%.80s", b.String())
	}
}

func TestTraceUnknownProtocol(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-protocol", "XXX"}, &b); err == nil {
		t.Fatal("unknown protocol should error")
	}
}
