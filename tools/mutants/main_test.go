package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusals holds the checks that run before anything is built: an
// entry whose old text is absent or occurs twice, or that is malformed,
// is refused with a message saying which.
func TestRefusals(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "a.go"), []byte("x := 1\ny := 1\nz := 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok := mutant{file: "a.go", old: "z := 2", new: "z := 3", pkg: "./", run: "TestA", defends: "a row"}
	if _, err := ok.apply(root); err != nil {
		t.Fatalf("well-formed entry refused: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(m *mutant)
		want string
	}{
		{"absent", func(m *mutant) { m.old = "w := 4" }, "occurs 0 times"},
		{"twice", func(m *mutant) { m.old = " := 1" }, "occurs 2 times"},
		{"no file", func(m *mutant) { m.file = "" }, "not a path inside the module"},
		{"outside the module", func(m *mutant) { m.file = "../a.go" }, "not a path inside the module"},
		{"package not ./", func(m *mutant) { m.pkg = "grasp/internal/sim" }, "not a ./ path"},
		{"no run pattern", func(m *mutant) { m.run = "" }, "no -run pattern"},
		{"defends nothing", func(m *mutant) { m.defends = "" }, "defends nothing"},
		{"no edit", func(m *mutant) { m.new = m.old }, "equal to the new text"},
	} {
		m := ok
		c.edit(&m)
		if _, err := m.apply(root); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one saying %q", c.name, err, c.want)
		}
	}
}

// TestCatalogueTargets checks every entry the way the tool does before it
// builds anything, so a change that moves a mutated line fails here until
// its entry is carried along.
func TestCatalogueTargets(t *testing.T) {
	root := filepath.Join("..", "..")
	for i, m := range catalogue {
		if _, err := m.apply(root); err != nil {
			t.Errorf("#%d %v: %v", i+1, m, err)
		}
		if _, err := os.Stat(filepath.Join(root, m.pkg)); err != nil {
			t.Errorf("#%d %v: %v", i+1, m, err)
		}
	}
}
