// Command mutants runs the repository's mutant catalogue (catalogue.go):
// each entry is one small edit of the program that some named test must
// catch. For every entry it checks that the entry is well formed and that
// its old text occurs exactly once in its file, compiles the package's
// test binary with the edit applied through `go test -overlay` (the
// working tree is never written), and runs the named tests. The mutant is
// killed only if the binary builds and the tests fail. The command exits
// non-zero if any entry is refused, fails to compile or survives, naming
// it; a refactor that moves a mutated line must carry its entry along.
//
// It takes no flags: `go run ./tools/mutants` from anywhere in the module.
// Entries run one at a time, so it needs no more memory than the largest
// test it runs. Its own tests, in tier-1, check the refusals and every
// catalogue entry's old text without building anything.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// mutant is one catalogue entry.
type mutant struct {
	file     string // mutated file, relative to the module root
	old, new string // old must occur exactly once in file; new replaces it
	pkg      string // package whose tests must kill the mutant, "./internal/sim"
	run      string // -run pattern of the tests that must fail
	defends  string // the CHANGES.md line, claims row or tier row the kill proves
}

// String names the entry in every report.
func (m mutant) String() string {
	return fmt.Sprintf("%s [%s -run %s] (%s)", m.file, m.pkg, m.run, m.defends)
}

// apply returns the mutated contents of the entry's file under root. It
// refuses an entry that names no file, package, test or purpose, or whose
// edit is empty, and one whose old text does not occur exactly once.
func (m mutant) apply(root string) ([]byte, error) {
	switch {
	case m.file == "" || filepath.IsAbs(m.file) || strings.HasPrefix(filepath.Clean(m.file), ".."):
		return nil, fmt.Errorf("file %q is not a path inside the module", m.file)
	case !strings.HasPrefix(m.pkg, "./"):
		return nil, fmt.Errorf("package %q is not a ./ path", m.pkg)
	case m.run == "":
		return nil, errors.New("no -run pattern")
	case m.defends == "":
		return nil, errors.New("defends nothing")
	case m.old == "" || m.old == m.new:
		return nil, errors.New("old text is empty or equal to the new text")
	}
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(m.old)); n != 1 {
		return nil, fmt.Errorf("old text occurs %d times, want exactly once", n)
	}
	return bytes.Replace(src, []byte(m.old), []byte(m.new), 1), nil
}

// try builds the entry's test binary in dir with the mutation overlaid
// and runs the named tests in the package's directory. It returns nil
// only for a kill.
func (m mutant) try(root, dir string) error {
	src, err := m.apply(root)
	if err != nil {
		return err
	}
	mutated := filepath.Join(dir, filepath.Base(m.file))
	if err := os.WriteFile(mutated, src, 0o644); err != nil {
		return err
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, m.file): mutated},
	})
	if err != nil {
		return err
	}
	ov := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ov, overlay, 0o644); err != nil {
		return err
	}
	bin := filepath.Join(dir, "mutant.test")
	os.Remove(bin) // a package without tests builds none: never run the last entry's
	build := exec.Command("go", "test", "-overlay", ov, "-c", "-o", bin, m.pkg)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("does not compile: %v\n%s", err, out)
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("%s has no test binary: %v", m.pkg, err)
	}
	run := exec.Command(bin, "-test.run", m.run, "-test.timeout", "10m")
	run.Dir = filepath.Join(root, m.pkg)
	out, err := run.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case bytes.Contains(out, []byte("testing: warning: no tests to run")):
		return fmt.Errorf("-run %q matches no test of %s", m.run, m.pkg)
	case err == nil:
		return fmt.Errorf("survived: every test matching -run %q passed", m.run)
	case !errors.As(err, &exit):
		return fmt.Errorf("running the tests: %v", err)
	}
	return nil
}

// moduleRoot is the directory of the enclosing module's go.mod.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", errors.New("not inside a module")
	}
	return filepath.Dir(gomod), nil
}

func main() {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	var bad []string
	for i, m := range catalogue {
		t0, verdict := time.Now(), "killed"
		if err := m.try(root, dir); err != nil {
			bad = append(bad, fmt.Sprintf("#%d %v: %v", i+1, m, err))
			verdict = "FAIL"
		}
		fmt.Printf("%-6s %6.1fs  #%d %v\n", verdict, time.Since(t0).Seconds(), i+1, m)
	}
	fmt.Printf("mutants: %d entries, %d killed, %.0fs\n", len(catalogue), len(catalogue)-len(bad), time.Since(start).Seconds())
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "mutants:", b)
		}
		os.RemoveAll(dir)
		os.Exit(1)
	}
}
