package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// mustHash canonicalizes and hashes, failing the test on error.
func mustHash(t *testing.T, s Spec) string {
	t.Helper()
	if err := s.Canonicalize(); err != nil {
		t.Fatalf("canonicalize %+v: %v", s, err)
	}
	h, err := s.Hash()
	if err != nil {
		t.Fatalf("hash %+v: %v", s, err)
	}
	return h
}

// TestHashFieldOrderInvariant: the hash is computed from the canonicalized
// struct, so JSON field order — the representation clients actually vary —
// can never change the content address.
func TestHashFieldOrderInvariant(t *testing.T) {
	docs := []string{
		`{"kind":"single","graph":"lj","app":"PR","policy":"GRASP","reorder":"DBG","scale":64}`,
		`{"scale":64,"reorder":"DBG","policy":"GRASP","app":"PR","graph":"lj","kind":"single"}`,
		`{"policy":"GRASP","kind":"single","scale":64,"graph":"lj","reorder":"DBG","app":"PR"}`,
	}
	var want string
	for i, doc := range docs {
		var s Spec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		h := mustHash(t, s)
		if i == 0 {
			want = h
		} else if h != want {
			t.Errorf("doc %d hashed to %s, want %s", i, h, want)
		}
	}
}

// TestHashDefaultsInvariant: spelling out the defaults yields the same
// address as omitting them.
func TestHashDefaultsInvariant(t *testing.T) {
	minimal := mustHash(t, Spec{Kind: KindSingle, Graph: "lj"})
	spelled := mustHash(t, Spec{Kind: KindSingle, Graph: "lj",
		App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 1})
	if minimal != spelled {
		t.Errorf("defaulted spec hashed to %s, spelled-out to %s", minimal, spelled)
	}
}

// TestHashDiscriminates: changing any result-determining field — scale,
// policy, app, graph, reorder, kind, experiment — must change the address.
func TestHashDiscriminates(t *testing.T) {
	base := Spec{Kind: KindSingle, Graph: "lj", App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 64}
	seen := map[string]string{mustHash(t, base): "base"}
	variants := map[string]Spec{
		"scale":   {Kind: KindSingle, Graph: "lj", App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 128},
		"policy":  {Kind: KindSingle, Graph: "lj", App: "PR", Policy: "RRIP", Reorder: "DBG", Scale: 64},
		"app":     {Kind: KindSingle, Graph: "lj", App: "BC", Policy: "GRASP", Reorder: "DBG", Scale: 64},
		"graph":   {Kind: KindSingle, Graph: "tw", App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 64},
		"reorder": {Kind: KindSingle, Graph: "lj", App: "PR", Policy: "GRASP", Reorder: "Sort", Scale: 64},
		"exp":     {Kind: KindExperiment, Exp: "fig2", Scale: 64},
		"exp2":    {Kind: KindExperiment, Exp: "fig5", Scale: 64},
	}
	for name, s := range variants {
		h := mustHash(t, s)
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %q collides with %q (%s)", name, prev, h)
		}
		seen[h] = name
	}
}

// TestHashFileGraphContent: file-backed graphs are addressed by content,
// so editing the file moves the job to a new address (no stale results),
// while an untouched file keeps its address across calls.
func TestHashFileGraphContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.el")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := func() Spec { return Spec{Kind: KindSingle, Graph: path, App: "PR", Scale: 64} }
	h1 := mustHash(t, spec())
	if h2 := mustHash(t, spec()); h2 != h1 {
		t.Errorf("same file hashed differently: %s vs %s", h1, h2)
	}
	// Rewrite with different content (different length, and a bumped
	// mtime so the digest memo cannot mask the change).
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if h3 := mustHash(t, spec()); h3 == h1 {
		t.Error("edited file kept its old content address")
	}
}

// TestCanonicalizeRejects covers the validation matrix.
func TestCanonicalizeRejects(t *testing.T) {
	bad := map[string]Spec{
		"unknown kind":        {Kind: "batch"},
		"single sans graph":   {Kind: KindSingle},
		"single with exp":     {Kind: KindSingle, Graph: "lj", Exp: "fig2"},
		"unknown app":         {Kind: KindSingle, Graph: "lj", App: "Dijkstra"},
		"unknown policy":      {Kind: KindSingle, Graph: "lj", Policy: "MRU"},
		"unknown reorder":     {Kind: KindSingle, Graph: "lj", Reorder: "Shuffle"},
		"reorder alias none":  {Kind: KindSingle, Graph: "lj", Reorder: "none"},
		"experiment unknown":  {Kind: KindExperiment, Exp: "fig99"},
		"experiment w/ graph": {Kind: KindExperiment, Exp: "fig2", Graph: "lj"},
		"scale 3":             {Kind: KindSingle, Graph: "lj", Scale: 3},
		"scale 5":             {Kind: KindSingle, Graph: "lj", Scale: 5},
		"scale 6":             {Kind: KindSingle, Graph: "lj", Scale: 6},
		"scale 12":            {Kind: KindSingle, Graph: "lj", Scale: 12},
		"scale 24":            {Kind: KindSingle, Graph: "lj", Scale: 24},
		"scale 31":            {Kind: KindSingle, Graph: "lj", Scale: 31},
		"experiment scale 3":  {Kind: KindExperiment, Exp: "fig2", Scale: 3},
	}
	for name, s := range bad {
		if err := s.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize accepted %+v", name, s)
		}
	}
	// Every power of two, and every divisor from 32 up, where each level
	// clamps to its two-set minimum (specOwnedBy scans 200-9999), stays
	// valid.
	for _, scale := range []uint32{0, 1, 2, 4, 8, 16, 32, 33, 48, 64, 100, 128, 200, 201, 999, 1024, 9999} {
		s := Spec{Kind: KindSingle, Graph: "lj", Scale: scale}
		if err := s.Canonicalize(); err != nil {
			t.Errorf("scale %d: %v", scale, err)
		}
	}
	// Hash must also refuse unresolvable graphs (checked at hash time, not
	// canonicalize time, because resolution may touch the filesystem).
	s := Spec{Kind: KindSingle, Graph: "no-such-file.el"}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Hash(); err == nil {
		t.Error("Hash accepted an unresolvable graph spec")
	}
}

// TestHashVersionPinsGoldens ties the hand-bumped hashVersion to the
// committed experiment goldens: a change that moves a golden changed what
// the simulator produces for an unchanged spec, so it must also bump
// hashVersion — otherwise a daemon's store keeps serving pre-change
// outcomes under unchanged addresses. The digest is SHA-256 over the
// goldens in name order (filepath.Glob sorts), each as "name size\n" then
// its bytes. Re-pin only together with a reasoned look at hashVersion.
func TestHashVersionPinsGoldens(t *testing.T) {
	const (
		pinnedVersion = "grasp-job-v2"
		pinnedDigest  = "52c459927695d8268b5e6e196b6701147ea7ed27294fe36c37fa9aea1f2893a3"
	)
	paths, err := filepath.Glob(filepath.Join("..", "exp", "testdata", "golden", "*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no goldens found (err %v)", err)
	}
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(data))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); hashVersion != pinnedVersion || got != pinnedDigest {
		t.Errorf("goldens moved: bump hashVersion or re-pin\n got (%q, %s)\nwant (%q, %s)",
			hashVersion, got, pinnedVersion, pinnedDigest)
	}
}
