package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gmp/internal/testutil"
)

// TestCatalogHonorsCancelledContext runs every catalog entry with an
// already-cancelled context: each must return context.Canceled without
// finishing a single cell.
func TestCatalogHonorsCancelledContext(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Catalog() {
		t.Run(e.Name, func(t *testing.T) {
			req := NewRequest(true)
			req.Config.Ctx = ctx
			req.Config.Progress = func(done, total int) {
				t.Errorf("%s finished cell %d/%d after cancellation", e.Name, done, total)
			}
			if _, err := e.Run(req); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s returned %v, want context.Canceled", e.Name, err)
			}
		})
	}
}

// TestDeliveryHonorsWorkerCap: with one worker, cancelling the campaign as
// the first topology arm completes leaves no second arm in flight, so
// exactly one cell reports progress.
func TestDeliveryHonorsWorkerCap(t *testing.T) {
	cfg := QuickDeliveryConfig()
	cfg.Topologies = []string{TopoVoid, TopoComb}
	cfg.TasksPerArm, cfg.K = 1, 2
	cfg.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	var cells int
	cfg.Progress = func(done, total int) {
		cells++
		cancel()
	}
	if _, err := RunDelivery(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunDelivery returned %v, want context.Canceled", err)
	}
	if cells != 1 {
		t.Fatalf("%d arms completed under a 1-worker cap, want 1", cells)
	}

	cfg.Workers = -1
	if _, err := RunDelivery(cfg); !errors.Is(err, ErrBadWorkers) {
		t.Fatalf("negative worker cap: err = %v, want ErrBadWorkers", err)
	}
}

// TestCatalogNamesAreUniqueAndSummarized: Lookup finds every entry by its
// name, and every entry carries a one-line summary for the usage text.
func TestCatalogNamesAreUniqueAndSummarized(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Catalog() {
		if seen[e.Name] {
			t.Errorf("duplicate catalog name %q", e.Name)
		}
		seen[e.Name] = true
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
		if e.Summary == "" || strings.Contains(e.Summary, "\n") {
			t.Errorf("%s: summary %q is not one line", e.Name, e.Summary)
		}
	}
	if _, ok := Lookup("wat"); ok {
		t.Error("Lookup found an unknown name")
	}
}
