package experiment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gmp/internal/sim"
)

// TestRunCellsBoundedPool verifies the satellite contract that the runner
// creates at most Workers goroutines: with 12 cells and 3 workers, the
// observed concurrency never exceeds 3 even though every cell blocks long
// enough for all in-flight cells to overlap.
func TestRunCellsBoundedPool(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	c := campaign{workers: workers}
	_, err := runCells(c, 4, 3, func(netIdx, ptIdx int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		return netIdx*10 + ptIdx, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent cells, pool is capped at %d", got, workers)
	}
}

// TestRunCellsGridOrder verifies the position-determined grid layout the
// deterministic-reduction contract rests on.
func TestRunCellsGridOrder(t *testing.T) {
	grid, err := runCells(campaign{workers: 4}, 3, 5, func(netIdx, ptIdx int) (string, error) {
		return fmt.Sprintf("%d/%d", netIdx, ptIdx), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range grid {
		for p := range grid[n] {
			if want := fmt.Sprintf("%d/%d", n, p); grid[n][p] != want {
				t.Fatalf("grid[%d][%d] = %q, want %q", n, p, grid[n][p], want)
			}
		}
	}
	// Appending to a row must not bleed into the next network's row.
	row := append(grid[0], "overflow")
	if grid[1][0] != "1/0" {
		t.Fatalf("append to row 0 clobbered row 1: %q (len %d)", grid[1][0], len(row))
	}
}

// TestRunCellsError verifies a failing cell aborts the run and surfaces its
// error.
func TestRunCellsError(t *testing.T) {
	boom := errors.New("boom")
	_, err := runCells(campaign{workers: 2}, 2, 2, func(netIdx, ptIdx int) (int, error) {
		if netIdx == 1 && ptIdx == 1 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRunCellsProgress verifies the progress callback fires once per cell,
// monotonically, ending at (total, total), with calls serialized.
func TestRunCellsProgress(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	c := campaign{workers: 4, progress: func(done, total int) {
		if total != 6 {
			t.Errorf("total = %d, want 6", total)
		}
		mu.Lock()
		calls = append(calls, done)
		mu.Unlock()
	}}
	if _, err := runCells(c, 2, 3, func(netIdx, ptIdx int) (int, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 6 {
		t.Fatalf("progress called %d times, want 6", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("calls = %v, want 1..6 in order", calls)
		}
	}
}

// TestSeedStreams pins the frozen seed-derivation formulas: changing any
// stride silently changes every table a campaign renders, so the formulas
// are locked here.
func TestSeedStreams(t *testing.T) {
	s := seeds{base: 100}
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"net", s.net(3), 100 + 3*7919},
		{"faultPlan", s.faultPlan(2), 100 + 2*7919 + 271829},
		{"density", s.density(4), 100 + 4*1_000_003},
		{"lossFault", s.lossFault(1, 2), 100 + 1*7919 + 2*999983 + 1},
		{"streamLoad", s.streamLoad(), 100 + 4256233},
		{"streamReplay", s.streamReplay(2), 100 + 4256233 + 3*1398269},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// Stream-valued derivations must agree with their documented seeds.
	if a, b := s.deployment(3).Int63(), rng(100+3*7919).Int63(); a != b {
		t.Errorf("deployment stream: %d vs %d", a, b)
	}
	if a, b := s.tasks(1, 8).Int63(), rng(100+1*7919+8*104729).Int63(); a != b {
		t.Errorf("tasks stream: %d vs %d", a, b)
	}
}

func TestWorkerCount(t *testing.T) {
	if got := (Config{Workers: 5}).workerCount(); got != 5 {
		t.Errorf("explicit Workers: got %d", got)
	}
	if got := (Config{}).workerCount(); got < 1 {
		t.Errorf("default Workers resolved to %d", got)
	}
	cfg := Quick()
	cfg.Workers = -1
	if err := cfg.Validate(nil); !errors.Is(err, ErrBadWorkers) {
		t.Errorf("negative Workers: %v", err)
	}
}

// TestRunMainGolden pins RunMain's default quick-campaign rendering to the
// pre-refactor output: the campaign runner must be a pure restructuring.
func TestRunMainGolden(t *testing.T) {
	res, err := RunMain(Quick(), AllProtocols())
	if err != nil {
		t.Fatal(err)
	}
	got := res.TotalHops.Render() + res.PerDestHops.Render() +
		res.Energy.Render() + res.FailureRate.Render()
	want, err := os.ReadFile(filepath.Join("testdata", "runmain_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("RunMain(Quick()) output changed from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// renderAll is a per-driver render used by the worker-count determinism
// tests below.
func renderAll(t *testing.T, workers int, run func(Config) (string, error)) string {
	t.Helper()
	cfg := Quick()
	cfg.Workers = workers
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWorkersDeterminism verifies the tentpole contract: rendered tables
// are byte-identical for Workers=1 and Workers=8, including on the
// fault-injection path (RunLoss with nonzero loss rates and ARQ).
func TestWorkersDeterminism(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Config) (string, error)
	}{
		{"RunMain", func(cfg Config) (string, error) {
			res, err := RunMain(cfg, AllProtocols())
			if err != nil {
				return "", err
			}
			return res.TotalHops.Render() + res.PerDestHops.Render() +
				res.Energy.Render() + res.FailureRate.Render(), nil
		}},
		{"RunFailures", func(cfg Config) (string, error) {
			fc := QuickFailureConfig()
			fc.Base = cfg
			tbl, err := RunFailures(fc, []string{ProtoGMP, ProtoGRD})
			if err != nil {
				return "", err
			}
			return tbl.Render(), nil
		}},
		{"RunLoss", func(cfg Config) (string, error) {
			lc := QuickLossConfig()
			lc.Base = cfg
			lc.Base.TasksPerNet = 4
			res, err := RunLoss(lc, []string{ProtoGMP})
			if err != nil {
				return "", err
			}
			return res.Failures.Render() + res.Transmissions.Render() + res.Energy.Render(), nil
		}},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			serial := renderAll(t, 1, d.run)
			pooled := renderAll(t, 8, d.run)
			if serial != pooled {
				t.Fatalf("%s output depends on worker count:\nWorkers=1:\n%s\nWorkers=8:\n%s",
					d.name, serial, pooled)
			}
		})
	}
}

// TestScratchSafetyMultiWorker extends TestWorkersDeterminism to the shared
// mutable state PR 5 introduced: the global sync.Pool of packets and the
// per-lane decision arenas (view.Scratch, steiner.Builder). Eight workers run
// the two campaigns that hit every pool release point — a loss sweep with ARQ
// (link-loss drops, retransmission exhaustion, full delivery) and a chaos
// campaign (crashes, perimeter recovery, the whole drop-reason taxonomy) —
// and the rendered output must still match a serial run. Determinism is
// re-checked as a byproduct; the test earns its keep under `go test -race`,
// where a scratch buffer shared across workers or a pooled packet freed while
// a handler still holds it becomes a reported race instead of silent
// corruption.
func TestScratchSafetyMultiWorker(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Config) (string, error)
	}{
		{"RunLossARQ", func(cfg Config) (string, error) {
			lc := QuickLossConfig()
			lc.Base = cfg
			lc.Base.TasksPerNet = 4
			lc.ARQ = sim.DefaultARQ()
			res, err := RunLoss(lc, []string{ProtoGMP, ProtoPBM})
			if err != nil {
				return "", err
			}
			return res.Failures.Render() + res.Transmissions.Render(), nil
		}},
		{"RunChaos", func(cfg Config) (string, error) {
			cc := QuickChaosConfig()
			cc.Base.Seed = cfg.Seed
			cc.Base.Workers = cfg.Workers
			rep, err := RunChaos(cc)
			if err != nil {
				return "", err
			}
			if len(rep.Violations) > 0 {
				return "", fmt.Errorf("chaos: %d invariant violations", len(rep.Violations))
			}
			return rep.Render(), nil
		}},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			serial := renderAll(t, 1, d.run)
			pooled := renderAll(t, 8, d.run)
			if serial != pooled {
				t.Fatalf("%s output depends on worker count:\nWorkers=1:\n%s\nWorkers=8:\n%s",
					d.name, serial, pooled)
			}
		})
	}
}
