package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grasp/internal/fail"
	"grasp/internal/sim"
)

// Outcome is the persisted result of one completed job, addressed by the
// spec hash. Exactly one of Single/Output is populated, matching the kind.
type Outcome struct {
	// Hash is the content address of the spec that produced this outcome.
	Hash string `json:"hash"`
	// Spec is the canonicalized job spec.
	Spec Spec `json:"spec"`
	// Single holds the cache metrics of a full-fidelity KindSingle run.
	Single *sim.Result `json:"single,omitempty"`
	// Sampled holds the set-sampled estimate of a sampled-fidelity
	// KindSingle run (exactly one of Single/Sampled/Corun/Output is set).
	Sampled *sim.SampledResult `json:"sampled,omitempty"`
	// Corun holds the shared-LLC co-run metrics of a KindSingle run with
	// corun_apps set (DESIGN.md Sec. 15).
	Corun *sim.CorunResult `json:"corun,omitempty"`
	// Output holds the rendered text body of a KindExperiment run.
	Output string `json:"output,omitempty"`
	// Elapsed is the wall-clock seconds of the execution that produced
	// this outcome. Cache hits return the stored outcome unchanged, so
	// they carry the ORIGINAL simulation's elapsed time — use the job's
	// Cached flag (or the submit disposition), not Elapsed, to detect a
	// hit.
	Elapsed float64 `json:"elapsed_seconds"`
	// Finished is when the simulation completed.
	Finished time.Time `json:"finished"`
}

// Store is the persistent, content-addressed result store: one JSON file
// per outcome under dir, named <hash>.json, written atomically (temp file
// + rename, so a crash never leaves a torn file) and fronted by an
// in-memory map so repeat hits never touch the disk. Safe for concurrent
// use.
//
// Every persisted file carries a SHA-256 of its exact bytes in a
// <hash>.json.sum sidecar, verified whenever the bytes are read back
// (boot indexing, sibling-process fill-ins, raw serving for cluster
// replication). A mismatch quarantines the entry — the file is renamed
// aside with a .corrupt suffix and counted — so a bit-rotted or tampered
// result re-executes instead of being served, locally or to a replica
// (DESIGN.md Sec. 16). A file with no sidecar (written by a pre-checksum
// daemon, or a crash between the two renames) is trusted once and its
// sidecar backfilled: the window where corruption is undetectable is one
// legacy read, not the store's lifetime.
type Store struct {
	dir     string
	corrupt atomic.Uint64
	mu      sync.RWMutex
	mem     map[string]*Outcome
	sums    map[string]string // hash → hex sha256 of the persisted bytes
}

// OpenStore opens (creating if needed) the result store rooted at dir and
// indexes the outcomes already on disk, so a restarted daemon serves its
// predecessor's results. Entries failing checksum verification are
// quarantined, not served.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	s := &Store{dir: dir, mem: make(map[string]*Outcome), sums: make(map[string]string)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		hash, ok := strings.CutSuffix(name, ".json")
		if !ok || e.IsDir() || !ValidHash(hash) {
			continue
		}
		if o, sum := s.readFile(hash); o != nil {
			s.mem[hash] = o
			s.sums[hash] = sum
		}
	}
	return s, nil
}

// Len returns the number of stored outcomes.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mem)
}

// Corrupt returns how many entries have been quarantined over the store's
// lifetime (the jobs_store_corrupt_total counter).
func (s *Store) Corrupt() uint64 { return s.corrupt.Load() }

// Get returns the stored outcome for hash, or nil if none exists.
func (s *Store) Get(hash string) *Outcome {
	if !ValidHash(hash) {
		return nil
	}
	s.mu.RLock()
	o := s.mem[hash]
	s.mu.RUnlock()
	if o != nil {
		return o
	}
	// A sibling process may have written the file after we indexed.
	if o, sum := s.readFile(hash); o != nil {
		s.mu.Lock()
		s.mem[hash] = o
		s.sums[hash] = sum
		s.mu.Unlock()
		return o
	}
	return nil
}

// GetRaw returns the exact persisted bytes of an outcome with their
// SHA-256 — the serving shape of cluster replication and checksummed
// result federation: the bytes on the wire are the bytes on disk, and the
// receiver re-verifies the digest end to end. The read is verified here
// too; a corrupt file is quarantined, the in-memory entry dropped, and
// (false) returned so the caller treats it as a miss and the job
// re-executes.
func (s *Store) GetRaw(hash string) (data []byte, sum string, ok bool) {
	if !ValidHash(hash) {
		return nil, "", false
	}
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, "", false
	}
	got := sha256Hex(data)
	if want, werr := s.readSum(hash); werr == nil && want != got {
		s.quarantine(hash, fmt.Sprintf("bytes sha256 %s, sidecar records %s", got, want))
		return nil, "", false
	}
	return data, got, true
}

// Put persists the outcome under its hash. Failures to write the disk copy
// are returned but the in-memory index is updated regardless, so the
// running daemon still serves the result.
func (s *Store) Put(o *Outcome) error {
	data, merr := json.MarshalIndent(o, "", "  ")
	if merr == nil {
		data = append(data, '\n')
	}
	s.mu.Lock()
	s.mem[o.Hash] = o
	if merr == nil {
		s.sums[o.Hash] = sha256Hex(data)
	}
	s.mu.Unlock()
	if err := fail.Hit("store.put"); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if merr != nil {
		return fmt.Errorf("jobs: %w", merr)
	}
	return s.writeVerified(o.Hash, data)
}

// PutRaw persists pre-serialized outcome bytes verbatim — the receiving
// half of cluster replication: the caller verified the transfer digest,
// and writing the same bytes keeps the checksum chain intact across
// nodes. The bytes must parse as an Outcome whose Hash field matches.
func (s *Store) PutRaw(hash string, data []byte) error {
	if !ValidHash(hash) {
		return fmt.Errorf("jobs: replicated outcome key %q is not a spec hash", hash)
	}
	var o Outcome
	if err := json.Unmarshal(data, &o); err != nil {
		return fmt.Errorf("jobs: replicated outcome: %w", err)
	}
	if o.Hash != hash {
		return fmt.Errorf("jobs: replicated outcome self-identifies as %q, want %q", o.Hash, hash)
	}
	s.mu.Lock()
	s.mem[hash] = &o
	s.sums[hash] = sha256Hex(data)
	s.mu.Unlock()
	if err := fail.Hit("store.put"); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return s.writeVerified(hash, data)
}

// writeVerified writes the outcome bytes and their checksum sidecar, each
// atomically (temp + rename), data first: a crash between the renames
// leaves a sum-less file, which the next boot trusts once and backfills —
// never a sidecar vouching for bytes that were not written.
func (s *Store) writeVerified(hash string, data []byte) error {
	if err := s.writeAtomic(s.path(hash), data); err != nil {
		return err
	}
	return s.writeAtomic(s.sumPath(hash), []byte(sha256Hex(data)+"\n"))
}

// writeAtomic writes path via a temp file and rename.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".outcome-tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// ValidHash reports whether hash has the shape Spec.Hash mints: 64
// lowercase hex digits. No other key names a stored outcome, so the store
// does no file I/O for one — "x/<hash>" would otherwise read <hash>'s
// file under the wrong key and quarantine it as corrupt — and a cluster
// node asks no peer for one.
func ValidHash(hash string) bool {
	return len(hash) == 2*sha256.Size && strings.Trim(hash, "0123456789abcdef") == ""
}

// path returns the on-disk location of hash's outcome file. Hashes are
// hex, but sanitize anyway so a hostile hash can never escape the dir.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, filepath.Base(hash)+".json")
}

// sumPath returns the checksum sidecar's location ("<hash>.json.sum" —
// the suffix keeps it out of the boot index's *.json scan).
func (s *Store) sumPath(hash string) string { return s.path(hash) + ".sum" }

// readSum loads the recorded checksum for hash from memory or the
// sidecar file.
func (s *Store) readSum(hash string) (string, error) {
	s.mu.RLock()
	sum, ok := s.sums[hash]
	s.mu.RUnlock()
	if ok {
		return sum, nil
	}
	data, err := os.ReadFile(s.sumPath(hash))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(data)), nil
}

// sha256Hex digests data to lowercase hex.
func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// quarantine moves a corrupt entry aside — <hash>.json becomes
// <hash>.json.corrupt (preserved for forensics, invisible to the index),
// its sidecar is removed and the in-memory entry dropped — so the next
// submission of the spec re-executes instead of serving bad bytes.
func (s *Store) quarantine(hash, why string) {
	s.corrupt.Add(1)
	s.mu.Lock()
	delete(s.mem, hash)
	delete(s.sums, hash)
	s.mu.Unlock()
	path := s.path(hash)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// Renaming failed (e.g. read-only disk); removing the sidecar alone
		// still keeps the entry out of future verified reads.
		log.Printf("jobs: quarantining %s: %v", hash, err)
	}
	os.Remove(s.sumPath(hash))
	log.Printf("jobs: quarantined corrupt result %s: %s", hash, why)
}

// readFile loads and verifies one outcome from disk, returning nil on any
// failure. A missing file is a plain cache miss; a present file whose
// bytes do not match their recorded checksum, or that no longer parses as
// its own hash's outcome, is CORRUPTION — quarantined and counted, never
// served. A file with no checksum sidecar is a legacy or crash-window
// write: verified structurally (parse + hash match) and its sidecar
// backfilled.
func (s *Store) readFile(hash string) (*Outcome, string) {
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, ""
	}
	sum := sha256Hex(data)
	want, werr := s.readSum(hash)
	if werr == nil && want != sum {
		s.quarantine(hash, fmt.Sprintf("bytes sha256 %s, sidecar records %s", sum, want))
		return nil, ""
	}
	var o Outcome
	if err := json.Unmarshal(data, &o); err != nil || o.Hash != hash {
		s.quarantine(hash, "file does not parse as its own outcome")
		return nil, ""
	}
	if werr != nil {
		// Trusted once; recorded so every later read is verified.
		if err := s.writeAtomic(s.sumPath(hash), []byte(sum+"\n")); err != nil {
			log.Printf("jobs: backfilling checksum for %s: %v", hash, err)
		}
	}
	return &o, sum
}
