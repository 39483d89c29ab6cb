// Package service is LANTERN's production serving layer: a concurrent
// narration service over the existing parse→LOT→narrate pipeline, built
// around a canonical plan fingerprinter and a sharded, byte-bounded LRU
// narration cache with targeted invalidation driven by POOL mutations.
//
// Every operation flows through one typed request envelope (envelope.go)
// and one pipeline (pipeline.go): Do(ctx, Request) routes the op kind
// (narrate, query, qa, pool, batch) through shared validate → cache →
// admission → execute → observe stages with per-op strategy hooks, and
// failures leave as structured errors (code, message, retryable). The v1
// methods (Narrate/Query/QA) are thin wrappers over Do.
//
// The Query path closes the loop end to end: plan, execute with
// per-operator instrumentation on a pooled engine session (concurrent
// queries run on independent engine instances — see
// internal/engine/session.go), bridge the plan with its actuals into the
// native dialect, and narrate what actually happened — with the narration
// cached under an actuals-aware fingerprint (actual rows and loops key
// the cache; wall time, the one non-deterministic statistic, does not).
// Unary queries (on the worker pool) and streams (QueryStream, stream.go,
// on the caller's goroutine) run one runner, runQuery (pipeline.go): it
// pulls the engine's cursor batch by batch, checks the deadline before
// every row, hands rendered rows out up to the caller's cap (a unary
// response echoes ten by default, a stream emits all), returns the
// session to the pool when the cursor closes, and narrates.
//
// The design follows the precompute-and-maintain playbook: a narration is
// a pure function of (plan structure, operator conditions, narration
// config, POEM store contents). The first three are folded into a stable
// fingerprint; the fourth is handled by invalidation — a POOL
// COMPOSE/UPDATE/DROP of one operator's description drops exactly the
// cached narrations whose plans mention that operator, so repeats are
// answered in constant time and updates touch only what they must.
package service

import (
	"crypto/sha256"
	"encoding/hex"

	"lantern/internal/plan"
)

// Fingerprint is a stable 256-bit identity for (plan, narration config).
type Fingerprint [32]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Presentation selects how a narration is rendered.
const (
	// PresentDocument is the step-list document rendering (the format 38
	// of 43 learners preferred in the paper's US 6).
	PresentDocument = "document"
	// PresentTree annotates the sentences onto the visual operator tree.
	PresentTree = "tree"
)

// Options is the narration configuration that participates in the
// fingerprint: any field that changes the rendered text must be here,
// otherwise two configs would collide on one cache entry.
type Options struct {
	// Presentation is PresentDocument ("" means PresentDocument) or
	// PresentTree.
	Presentation string `json:"presentation,omitempty"`
}

func (o Options) canonical() string {
	if o.Presentation == "" || o.Presentation == PresentDocument {
		return PresentDocument
	}
	return o.Presentation
}

// PlanFingerprint computes the canonical fingerprint of a parsed plan under
// a narration config, plus the plan's operator set (canonical names, sorted)
// for the cache's invalidation index. Two calls agree iff the trees have
// identical structure, operators, and attribute values and the options
// render identically; cardinality/cost estimates are excluded (they never
// reach the narration text).
func PlanFingerprint(tree *plan.Node, opts Options) (Fingerprint, []string) {
	// The hashed bytes are built in one buffer on the stack, which holds
	// the canonical form of a typical narrated plan; a larger one spills
	// to the heap.
	var stack [2048]byte
	buf := append(stack[:0], "lantern-plan-fp-v1\x00"...)
	buf = append(buf, opts.canonical()...)
	buf = append(buf, 0)
	buf = tree.AppendCanonical(buf)
	return sha256.Sum256(buf), tree.OperatorSet()
}

// requestKey hashes the raw request payload (SQL text or serialized plan
// document) under its source dialect and options. It keys the server's
// front index mapping repeated identical requests straight to their plan
// fingerprint, skipping parsing and planning entirely on the hot path.
// Like PlanFingerprint it hashes one buffer on the stack, which holds a
// typical SQL text; a larger payload spills to the heap.
func requestKey(source, payload string, opts Options) Fingerprint {
	var stack [2048]byte
	buf := append(stack[:0], "lantern-req-fp-v1\x00"...)
	buf = append(buf, source...)
	buf = append(buf, 0)
	buf = append(buf, opts.canonical()...)
	buf = append(buf, 0)
	buf = append(buf, payload...)
	return sha256.Sum256(buf)
}
