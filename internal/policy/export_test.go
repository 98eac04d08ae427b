package policy

// Helpers shared with the external policy_test package, whose tests range
// over sim's policy registry (sim imports this package, so they cannot
// live inside it).

// NewTestRNG returns the next function of the tests' deterministic RNG.
func NewTestRNG(seed uint64) func() uint64 { return newTestRNG(seed).next }

// PropertySeeds and PropertyTrace are the seed table and trace generator
// of the property tests.
var (
	PropertySeeds = propertySeeds
	PropertyTrace = propertyTrace
)
