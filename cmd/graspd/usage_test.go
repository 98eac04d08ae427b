package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the usage golden file")

// TestUsageGolden locks the full `graspd -h` output against
// testdata/usage.golden, so a flag added, removed or reworded shows in
// review as a golden diff. GOMAXPROCS is pinned while the flags are built:
// -workers defaults to it, and the golden must not depend on the host.
// Refresh after intentional changes with:
//
//	go test ./cmd/graspd -run Usage -update
func TestUsageGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fs, _ := newFlags()
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	got := buf.Bytes()

	golden := filepath.Join("testdata", "usage.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("usage output drifted from %s (refresh with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}
