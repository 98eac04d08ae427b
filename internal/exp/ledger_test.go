package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// ledgerPinPath is the pinned work ledger of the 1/64 golden sweep.
var ledgerPinPath = filepath.Join("testdata", "ledger_64.json")

// TestWorkLedgerPinned pins what the golden sweep does at 1/64: the union
// of every golden experiment's points prefetched on a fresh session, which
// no other test touches, then every experiment run, as graspsim's sweep
// does (`graspsim -exp <the golden ids> -scale 64` prints this ledger).
// The ledger counts work, not time, so it is the same at any GOMAXPROCS
// and on any host; CI runs this test at 1 and at 2. A change that makes
// the sweep do more or less work fails here and re-pins, with its reason,
// like a golden:
//
//	go test ./internal/exp -run WorkLedgerPinned -update
func TestWorkLedgerPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("work ledger pin skipped in -short mode")
	}
	t.Parallel()
	s := NewSession(ScaledConfig(goldenScaleDiv))
	var points []Datapoint
	for _, e := range goldenExperiments() {
		if e.Points != nil {
			points = append(points, e.Points()...)
		}
	}
	if err := s.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenExperiments() {
		if err := Run(context.Background(), s, e, io.Discard, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := json.MarshalIndent(s.Ledger(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(ledgerPinPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerPinPath)
	if err != nil {
		t.Fatalf("missing pin (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the 1/64 sweep's work moved from %s:\n%s\nre-pin with -update and state why in CHANGES.md",
			ledgerPinPath, diffSummary(want, got))
	}
}
