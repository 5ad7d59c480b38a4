package search

// Policy composes a search's attempt kinds: for each canonical attempt
// index it decides whether the attempt pops the directed frontier and
// whether a non-directed attempt samples randomly or runs the
// deterministic sticky baseline. It is the seam future strategies
// (e.g. a pattern-prioritized or hybrid-guided policy) drop into
// without touching internal/core.
//
// Implementations must be pure functions of the index — the same
// policy asked about the same index must always answer the same —
// because the canonical-order commit discipline (and the schedule
// cache key, which encodes Directed and Seeded per attempt) relies on
// attempt identity being reproducible across runs and worker counts.
type Policy interface {
	// UsesFeedback reports whether the search maintains a directed
	// frontier at all: whether failed directed attempts generate
	// race-flip children.
	UsesFeedback() bool
	// Directed reports whether canonical attempt idx should pop the
	// frontier (falling back to a probabilistic sample when it is
	// empty and no directed attempt is in flight).
	Directed(idx int) bool
	// Seeded reports whether non-directed attempt idx explores with an
	// index-seeded random schedule; false runs the deterministic
	// sticky-policy baseline instead.
	Seeded(idx int) bool
}

// FeedbackDirected is the paper's search: even canonical indices pop
// the directed frontier (breadth-first over flip depth, fed by race
// flips from failed attempts), odd indices sample the
// sketch-constrained space probabilistically. Directed attempts force
// windows random sampling is unlikely to hit; random attempts cover
// window shapes the race-flip vocabulary cannot express.
type FeedbackDirected struct{}

func (FeedbackDirected) UsesFeedback() bool    { return true }
func (FeedbackDirected) Directed(idx int) bool { return idx%2 == 0 }
func (FeedbackDirected) Seeded(int) bool       { return true }

// Probabilistic is the no-feedback ablation (the paper's E5 baseline):
// attempt 0 is the deterministic sticky baseline, every later attempt
// an independent index-seeded sample of the sketch-constrained space.
type Probabilistic struct{}

func (Probabilistic) UsesFeedback() bool { return false }
func (Probabilistic) Directed(int) bool  { return false }
func (Probabilistic) Seeded(idx int) bool {
	return idx != 0
}

// StickyDirected runs every attempt under the deterministic sticky
// policy with no feedback and no sampling — the coarsest baseline:
// one production-like schedule, repeated. Useful as a control for how
// much of a reproduction is owed to search rather than enforcement.
type StickyDirected struct{}

func (StickyDirected) UsesFeedback() bool { return false }
func (StickyDirected) Directed(int) bool  { return false }
func (StickyDirected) Seeded(int) bool    { return false }
