package fail

import (
	"errors"
	"testing"
)

// TestDisarmedIsFree: an unarmed point reports no fault (the only state
// production code observes).
func TestDisarmedIsFree(t *testing.T) {
	if err := Hit("nope"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
}

// TestArmAndReset: an armed point fires its error, counts hits, and
// Reset restores the disarmed state.
func TestArmAndReset(t *testing.T) {
	defer Reset()
	want := errors.New("boom")
	Arm("p", want)
	if err := Hit("p"); !errors.Is(err, want) {
		t.Fatalf("Hit = %v, want %v", err, want)
	}
	if got := Hits("p"); got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
	Reset()
	if err := Hit("p"); err != nil {
		t.Fatalf("Hit after Reset = %v", err)
	}
}

// TestArmAfterSkipsPasses: ArmAfter lets the first N hits through, then
// fires — the mid-stream fault shape (Nth replay chunk).
func TestArmAfterSkipsPasses(t *testing.T) {
	defer Reset()
	ArmAfter("p", 2, nil)
	for i := 0; i < 2; i++ {
		if err := Hit("p"); err != nil {
			t.Fatalf("pass %d: Hit = %v, want nil", i, err)
		}
	}
	if err := Hit("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("third Hit = %v, want ErrInjected", err)
	}
}

// TestArmPanic: a panic-armed point panics with an identifiable message.
func TestArmPanic(t *testing.T) {
	defer Reset()
	ArmPanic("p", "kaboom")
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("ArmPanic'd Hit did not panic")
		}
	}()
	Hit("p")
}
