package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmp/internal/experiment"
)

func TestReportQuickToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.html")
	var b strings.Builder
	err := run([]string{"-quick", "-o", path}, &b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	for _, want := range []string{
		"<!DOCTYPE html>", "Figure 11", "Figure 12", "Figure 14", "Figure 15",
		"λ trade-off", "<svg",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if !strings.Contains(b.String(), "wrote") {
		t.Fatalf("status line missing: %q", b.String())
	}
}

func TestReportExtensionsQuick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.html")
	var b strings.Builder
	if err := run([]string{"-quick", "-extensions", "-o", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	for _, want := range []string{"E-X1", "E-X2", "E-X3", "E-X5", "E-X6", "E-X7"} {
		if !strings.Contains(html, want) {
			t.Fatalf("extensions report missing %s", want)
		}
	}
}

func TestReportStdout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-o", "-"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "<!DOCTYPE html>") {
		t.Fatal("stdout should carry the document")
	}
}

// TestSectionsRunEachEntryOnce: every report section names a distinct
// catalog entry, so no experiment runs twice in one invocation.
func TestSectionsRunEachEntryOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range sections {
		if _, ok := experiment.Lookup(s.entry); !ok {
			t.Errorf("section %q names no catalog experiment", s.entry)
		}
		if seen[s.entry] {
			t.Errorf("section %q runs twice", s.entry)
		}
		seen[s.entry] = true
	}
}
