// Package testutil holds helpers shared by tests across packages.
package testutil

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// Golden compares got with the golden file at path or, when update is set,
// rewrites the file with got. Each package's tests bind update to their own
// -update flag.
func Golden(t *testing.T, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update to accept it):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// SkipIfRace skips allocation-budget tests under the race detector: race
// instrumentation adds its own allocations, so AllocsPerRun numbers measured
// there say nothing about the production hot path.
func SkipIfRace(t *testing.T) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
}

// VerifyNoLeaks snapshots the goroutine count; the returned func fails the
// test if the count has not returned to the snapshot within a grace period.
// Use as
//
//	defer testutil.VerifyNoLeaks(t)()
//
// at the top of any test whose subject spawns goroutines and promises to
// reap them (cancelled campaigns, drained servers). The grace period absorbs
// goroutines that are mid-exit when the test body returns; a real leak —
// a goroutine parked on a channel nobody will close — never converges, and
// the failure message carries the full stack dump to name it.
func VerifyNoLeaks(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("goroutine leak: %d before, %d after grace period\n%s", before, n, buf)
		}
	}
}
