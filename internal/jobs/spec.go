package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/reorder"
	"grasp/internal/sim"
)

// Job kinds accepted by Spec.Kind.
const (
	// KindSingle runs one (graph, reorder, app, policy) simulation and
	// returns its cache metrics — the service twin of `graspsim -graph`.
	KindSingle = "single"
	// KindExperiment regenerates one named paper experiment (table/figure)
	// and returns its rendered text body — the twin of `graspsim -exp`.
	KindExperiment = "experiment"
)

// Fidelities accepted by Spec.Fidelity.
const (
	// FidelityFull simulates every LLC set: the exact paper numbers. This
	// is the default; an omitted fidelity canonicalizes to it and its
	// content address is unchanged from before the field existed, so
	// stored results survive the upgrade.
	FidelityFull = "full"
	// FidelitySampled simulates ~1/sample_k of the LLC sets and returns an
	// extrapolated estimate with a confidence interval (DESIGN.md
	// Sec. 14): the fast exploratory tier. Sampled outcomes hash to their
	// own content addresses, so estimates and exact numbers coexist in one
	// store without aliasing.
	FidelitySampled = "sampled"
)

// DefaultSampleK is the sampling divisor a sampled-fidelity spec gets
// when sample_k is omitted.
const DefaultSampleK = 16

// Spec describes one simulation job a client can submit. The zero values
// of optional fields are normalized by Canonicalize, so two specs that
// differ only in spelled-out defaults (or in JSON field order, which never
// reaches the hash) are the same job.
type Spec struct {
	// Kind selects the job shape: KindSingle or KindExperiment.
	Kind string `json:"kind"`
	// Graph names the dataset (lj, pl, tw, ...) or a graph-file path
	// readable by the server. KindSingle only.
	Graph string `json:"graph,omitempty"`
	// App is the application to trace (KindSingle; default PR).
	App string `json:"app,omitempty"`
	// Policy is the LLC replacement policy (KindSingle; default GRASP).
	Policy string `json:"policy,omitempty"`
	// Reorder is the vertex reordering technique (KindSingle; default DBG).
	Reorder string `json:"reorder,omitempty"`
	// Exp is the experiment id (fig5, table1, ...). KindExperiment only.
	Exp string `json:"exp,omitempty"`
	// Scale is the dataset scale divisor; 0 or 1 = full reproduction
	// scale. The simulated hierarchy shrinks with it (exp.ScaledConfig).
	Scale uint32 `json:"scale,omitempty"`
	// Fidelity selects the simulation tier for KindSingle jobs:
	// FidelityFull (default; omitted canonicalizes to it) or
	// FidelitySampled for a set-sampled fast estimate.
	Fidelity string `json:"fidelity,omitempty"`
	// SampleK is the set-sampling divisor for FidelitySampled: ~1/K of the
	// LLC sets are simulated. Must be a power of two; 0 selects
	// DefaultSampleK. 1 is exact (every set) and still reports the
	// estimate form. Only valid with sampled fidelity.
	SampleK uint32 `json:"sample_k,omitempty"`
	// CorunApps names co-running applications: when set, the job replays
	// App plus these apps interleaved into one shared LLC and reports
	// per-app attribution and fairness metrics (DESIGN.md Sec. 15) instead
	// of a single-app result. KindSingle, full fidelity only; the mix is
	// [App, CorunApps...] in order, and apps may repeat.
	CorunApps []string `json:"corun_apps,omitempty"`
	// CorunRatio gives the round-robin interleave weights of the mix, one
	// per app including App itself (so len = 1 + len(CorunApps)); every
	// weight must be >= 1. Omitted = uniform (all 1s, the canonical form —
	// an explicit all-ones ratio hashes identically to an omitted one).
	// Only valid with corun_apps.
	CorunRatio []int `json:"corun_ratio,omitempty"`
	// TimeoutS is an optional wall-clock budget in seconds: the job is
	// cancelled (and fails) once it runs longer. 0 falls back to the
	// server's default deadline, if any. It is a scheduling option, not
	// part of the job's identity — it never enters the content hash, so
	// submissions differing only in timeout dedup onto one execution,
	// which runs under the lead submission's budget.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// Canonicalize validates the spec and fills normalized defaults in place,
// so that equal work always produces an identical Spec — the precondition
// for content-addressed hashing.
func (s *Spec) Canonicalize() error {
	if s.Scale == 0 {
		s.Scale = 1
	}
	// A divisor that is not a power of two below the clamp (3, 5, 6, 12,
	// 24, ...) shrinks some level to a size no cache can index; building
	// the hierarchy is the cache package's own geometry check, run before
	// any graph is generated or any session is made for the scale.
	if _, err := cache.NewHierarchy(configForScale(s.Scale).HCfg, nil, nil); err != nil {
		return fmt.Errorf("jobs: scale %d: %w", s.Scale, err)
	}
	if s.TimeoutS < 0 {
		return fmt.Errorf("jobs: negative timeout_s %g", s.TimeoutS)
	}
	switch s.Kind {
	case KindSingle:
		if s.Exp != "" {
			return fmt.Errorf("jobs: %q job must not set exp", KindSingle)
		}
		if s.Graph == "" {
			return fmt.Errorf("jobs: %q job requires a graph", KindSingle)
		}
		if s.App == "" {
			s.App = "PR"
		}
		if s.Policy == "" {
			s.Policy = "GRASP"
		}
		if s.Reorder == "" {
			s.Reorder = "DBG"
		}
		if !knownApp(s.App) {
			return fmt.Errorf("jobs: unknown app %q; known: %v", s.App, apps.ExtendedNames())
		}
		if _, err := sim.PolicyByName(s.Policy); err != nil {
			return err
		}
		if _, err := reorder.ByName(s.Reorder); err != nil {
			return err
		}
		switch s.Fidelity {
		case "", FidelityFull:
			s.Fidelity = FidelityFull
			if s.SampleK != 0 {
				return fmt.Errorf("jobs: sample_k is only valid with %q fidelity", FidelitySampled)
			}
		case FidelitySampled:
			if s.SampleK == 0 {
				s.SampleK = DefaultSampleK
			}
			if s.SampleK&(s.SampleK-1) != 0 {
				return fmt.Errorf("jobs: sample_k %d is not a power of two", s.SampleK)
			}
			if s.SampleK > 1<<16 {
				return fmt.Errorf("jobs: sample_k %d exceeds the maximum %d", s.SampleK, 1<<16)
			}
		default:
			return fmt.Errorf("jobs: unknown fidelity %q (want %q or %q)", s.Fidelity, FidelityFull, FidelitySampled)
		}
		if len(s.CorunApps) == 0 {
			if len(s.CorunRatio) != 0 {
				return fmt.Errorf("jobs: corun_ratio is only valid with corun_apps")
			}
		} else {
			if s.Fidelity != FidelityFull {
				return fmt.Errorf("jobs: corun_apps is only valid with %q fidelity", FidelityFull)
			}
			if 1+len(s.CorunApps) > sim.MaxCorunApps {
				return fmt.Errorf("jobs: co-run of %d apps exceeds the maximum %d", 1+len(s.CorunApps), sim.MaxCorunApps)
			}
			for _, a := range s.CorunApps {
				if !knownApp(a) {
					return fmt.Errorf("jobs: unknown corun app %q; known: %v", a, apps.ExtendedNames())
				}
			}
			switch {
			case len(s.CorunRatio) == 0:
				// Canonical form: uniform weights stay omitted, so an explicit
				// all-ones ratio normalizes to the same spec (and hash).
			case len(s.CorunRatio) != 1+len(s.CorunApps):
				return fmt.Errorf("jobs: corun_ratio has %d weights for %d apps", len(s.CorunRatio), 1+len(s.CorunApps))
			default:
				uniform := true
				for _, w := range s.CorunRatio {
					if w < 1 {
						return fmt.Errorf("jobs: corun_ratio weight %d, want >= 1", w)
					}
					if w != 1 {
						uniform = false
					}
				}
				if uniform {
					s.CorunRatio = nil
				}
			}
		}
	case KindExperiment:
		if len(s.CorunApps) != 0 || len(s.CorunRatio) != 0 {
			return fmt.Errorf("jobs: %q job must set only exp and scale", KindExperiment)
		}
		if s.Graph != "" || s.App != "" || s.Policy != "" || s.Reorder != "" || s.Fidelity != "" || s.SampleK != 0 {
			return fmt.Errorf("jobs: %q job must set only exp and scale", KindExperiment)
		}
		if _, err := exp.ByID(s.Exp); err != nil {
			return err
		}
	default:
		return fmt.Errorf("jobs: unknown job kind %q (want %q or %q)", s.Kind, KindSingle, KindExperiment)
	}
	return nil
}

// knownApp reports whether name is in the extended application registry.
func knownApp(name string) bool {
	for _, n := range apps.ExtendedNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Config returns the experiment configuration the spec runs under:
// exp.ScaledConfig of its scale, with 0 meaning 1 (the full hierarchy).
func (s Spec) Config() exp.Config { return configForScale(s.Scale) }

// configForScale is the single scale→configuration mapping: the hash
// (Spec.Hash digests the derived geometry) and the simulation session
// (Manager.sessionFor) both derive from here, so a cached result's
// recorded hierarchy can never diverge from the one actually simulated.
func configForScale(scale uint32) exp.Config {
	return exp.ScaledConfig(max(scale, 1))
}

// hashVersion is the job-hash format preamble. The persistent result
// store serves outcomes by hash alone, so any semantic change to the
// simulator, the tracers, or an experiment's rendering that is not
// visible through the spec fields below MUST bump this string — otherwise
// a daemon with an old store silently serves pre-change outcomes under
// unchanged addresses. (Dataset generator parameters are already covered
// without a bump: single jobs digest their own graph's parameters and
// experiment jobs digest the whole registry's, so retuning a generator
// moves both kinds to new addresses.)
const hashVersion = "grasp-job-v2"

// Hash content-addresses the job: a canonical, versioned serialization of
// everything that determines the result — graph identity (file-backed
// graphs hash their bytes, so editing a file changes the address; named
// synthetic datasets digest their generator parameters, so retuning a
// generator changes it too), app, policy, reordering, experiment id,
// scale, the derived cache hierarchy geometry and, for sampled-fidelity
// jobs, the fidelity tier and sampling divisor — digested with
// SHA-256. Specs that canonicalize identically hash identically
// regardless of how the client spelled them. The spec must have been
// canonicalized.
func (s Spec) Hash() (string, error) {
	_, hash, err := s.identityAndHash()
	return hash, err
}

// identityAndHash computes the graph identity alongside the content
// address it was digested into. The manager records the identity on the
// job so it can re-verify, after execution, that the file the simulation
// read is still the file the hash pinned — computing the identity a
// second time at submit could observe a different file state than Hash
// did, reintroducing that race.
func (s Spec) identityAndHash() (gid, hash string, err error) {
	switch s.Kind {
	case KindSingle:
		if gid, err = graphIdentity(s.Graph); err != nil {
			return "", "", err
		}
	case KindExperiment:
		// An experiment's result is a function of the whole dataset grid,
		// so its address must move when any registered generator is
		// retuned — not only when a hand-bumped version string remembers to.
		gid = registryIdentity()
	}
	cfg := s.Config()
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00%s\x00%s\x00%d\x00",
		hashVersion, s.Kind, gid, s.App, s.Policy, s.Reorder, s.Exp, s.Scale)
	fmt.Fprintf(h, "L1:%d/%d\x00L2:%d/%d\x00LLC:%d/%d\x00",
		cfg.HCfg.L1.SizeBytes, cfg.HCfg.L1.Ways,
		cfg.HCfg.L2.SizeBytes, cfg.HCfg.L2.Ways,
		cfg.HCfg.LLC.SizeBytes, cfg.HCfg.LLC.Ways)
	if s.Fidelity == FidelitySampled {
		// Appended only on the sampled tier: full-fidelity specs keep
		// digesting the exact pre-fidelity byte stream, so every address
		// minted before the field existed still resolves to its stored
		// outcome (the pinned-hash compat test enforces this).
		fmt.Fprintf(h, "fidelity:%s/%d\x00", s.Fidelity, s.SampleK)
	}
	if len(s.CorunApps) > 0 {
		// Same rule for the co-run fields: only co-run specs digest them,
		// so every pre-co-run address — including the sampled tier's — is
		// byte-unchanged (the pre-PR-8 pinned-hash test enforces this).
		fmt.Fprintf(h, "corun:%s", strings.Join(s.CorunApps, ","))
		for _, w := range s.CorunRatio {
			fmt.Fprintf(h, "/%d", w)
		}
		fmt.Fprintf(h, "\x00")
	}
	return gid, hex.EncodeToString(h.Sum(nil)), nil
}

// PlacementKey names the workload a KindSingle spec simulates on — the
// graph's content identity, the scale, the reordering and whether the
// application wants edge weights: exp.Session's workload artifact plus the
// scale that selects the session. In cluster mode it is the ring key that
// decides WHERE a cold job simulates (its hash still decides where it is
// queued and stored): every policy, application of the same weightedness,
// fidelity and sampling divisor over one workload shares a key, so one node
// loads, reorders and records for all of them. The string is a deployed
// cluster's cache affinity; TestPlacementKeyPinned holds it still. The
// spec must have been canonicalized.
func (s Spec) PlacementKey() (string, error) {
	gid, err := graphIdentity(s.Graph)
	if err != nil {
		return "", err
	}
	return s.placementKey(gid), nil
}

// placementKey renders PlacementKey over an already derived graph identity
// (the manager passes the one the job's hash digested). The prefix is not
// hex on purpose: cluster.keyPos re-hashes it instead of reading a ring
// position off its first digits.
func (s Spec) placementKey(gid string) string {
	return fmt.Sprintf("workload:%s;scale=%d;reorder=%s;weighted=%t", gid, s.Scale, s.Reorder, apps.Weighted(s.App))
}

// verifyGraphIdentity re-derives the content identity of a file-backed
// graph after execution: the hash pinned the file's bytes at submit time,
// but the simulation read the file at run time, so an edit while the job
// sat queued (or ran) could otherwise persist the new bytes' metrics
// under the old bytes' address — forever, since stored outcomes never
// expire. A mismatch fails the job; the caller resubmits and the fresh
// spec hashes to the edited file's own address. Synthetic datasets are
// immutable and skip the check.
func (j *Job) verifyGraphIdentity() error {
	if !strings.HasPrefix(j.graphID, "file:") {
		return nil
	}
	gid, err := graphIdentity(j.Spec.Graph)
	if err != nil {
		return fmt.Errorf("jobs: re-verifying graph %q after run: %w", j.Spec.Graph, err)
	}
	if gid != j.graphID {
		return fmt.Errorf("jobs: graph file %q changed while the job was queued or running; resubmit", j.Spec.Graph)
	}
	return nil
}

// fileDigest is one memoized content digest; size and mtime validate it
// against the current file state.
type fileDigest struct {
	size    int64
	modNano int64
	digest  string
}

// fileDigestCache memoizes content digests of file-backed graphs, keyed
// by path (exactly one live entry per file — an edit replaces the entry
// rather than leaking the stale one) and validated by (size, mtime) so an
// edited file re-hashes while steady-state requests never re-read bytes.
var fileDigestCache = struct {
	sync.Mutex
	m map[string]fileDigest
}{m: make(map[string]fileDigest)}

// datasetIdentity renders the content-pinning identity of one registered
// synthetic dataset: the name plus every generator parameter (kind,
// vertex count, degree, alpha, RMAT scale, seed). Generation is
// deterministic, so these pin the content even if the registry is retuned
// later.
func datasetIdentity(ds graph.Dataset) string {
	return fmt.Sprintf("%s;kind=%d;n=%d;deg=%g;alpha=%g;rmat=%d;seed=%d",
		ds.Name, ds.Kind, ds.Vertices, ds.AvgDegree, ds.Alpha, ds.Scale, ds.Seed)
}

// registryIdentity is the combined identity of every registered dataset,
// folded into experiment-job hashes (an experiment draws on the whole
// grid, so retuning any generator must move every experiment's address).
func registryIdentity() string {
	var sb strings.Builder
	sb.WriteString("registry:")
	for _, ds := range graph.Datasets() {
		sb.WriteString(datasetIdentity(ds))
		sb.WriteByte('|')
	}
	return sb.String()
}

// graphIdentity returns the content-addressable identity of a graph spec:
// datasetIdentity for registered synthetic datasets, or "file:<sha256>"
// of the file bytes for file-backed graphs.
func graphIdentity(spec string) (string, error) {
	ds, err := graph.Resolve(spec)
	if err != nil {
		return "", err
	}
	if ds.Kind != graph.KindFile {
		return "name:" + datasetIdentity(ds), nil
	}
	fi, err := os.Stat(ds.Path)
	if err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	fileDigestCache.Lock()
	d, ok := fileDigestCache.m[ds.Path]
	fileDigestCache.Unlock()
	if ok && d.size == fi.Size() && d.modNano == fi.ModTime().UnixNano() {
		return d.digest, nil
	}
	f, err := os.Open(ds.Path)
	if err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	d = fileDigest{size: fi.Size(), modNano: fi.ModTime().UnixNano(),
		digest: "file:" + hex.EncodeToString(h.Sum(nil))}
	fileDigestCache.Lock()
	fileDigestCache.m[ds.Path] = d
	fileDigestCache.Unlock()
	return d.digest, nil
}
