// Package diversify defines the diversification stage boundary of the
// suggestion pipeline: a Diversifier selects k diverse suggestions from
// the relevance-gated candidate pool of one compact representation.
//
// The paper's cross-bipartite hitting-time selector (Algorithm 1) is
// one point in a much larger design space — MMR, PFAR, intent-model
// diversification and the 2022 diversification survey all treat the
// selector as a swappable component. This package makes that boundary
// first-class: strategies register themselves under a stable name,
// core.Engine resolves the per-request strategy against the registry,
// and the suggestion cache keys on the strategy name so lists produced
// by different selectors can never be served for each other.
//
// Registered strategies:
//
//	hitting    the paper's truncated cross-bipartite hitting time
//	           (Algorithm 1); the default, bit-identical to the
//	           pre-registry pipeline
//	mmr        Maximal Marginal Relevance over the compact cf·iqf
//	           query vectors: λ·relevance − (1−λ)·max similarity to
//	           the already-selected set
//	pfar       PFAR-style topic coverage: relevance plus a λ·τ bonus
//	           for candidates whose topics are not covered yet
//	relevance  the relevance-gate order itself (no diversification);
//	           the cheapest selector and the designated admission-
//	           control brownout fallback
package diversify

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/hittingtime"
)

// Request carries everything one selection needs. All slices are
// read-only for the strategy.
type Request struct {
	// Compact is the compact representation the candidates live in;
	// every index below is compact-local.
	Compact *bipartite.Compact
	// Query is the raw input query (adapter strategies that wrap
	// external suggesters re-run it through their own pipeline).
	Query string
	// First is the Eq. 15 first candidate; every selection starts with
	// it.
	First int
	// K is the number of suggestions wanted (including First).
	K int
	// Excluded lists the seed locals (input query + search context)
	// that must never be suggested.
	Excluded []int
	// Pool is the relevance gate: the candidate locals diversification
	// may pick from, in descending Eq. 15 score order.
	Pool []int
	// Relevance is the full F* score vector of the Eq. 15 solve,
	// indexed by compact-local id.
	Relevance []float64
	// TopicsOf returns the topic ids of a compact-local query (UPM
	// topics when the engine has profiles, clicked-URL objects
	// otherwise). Nil when the engine cannot provide topics; topic-
	// aware strategies then degrade to relevance order.
	TopicsOf func(local int) []int
	// TopicWeights are the global (user-independent) topic proportions
	// aligned with TopicsOf's UPM topic ids; nil means uniform. Kept
	// user-independent on purpose: the suggestion cache stores the
	// diversified list across users.
	TopicWeights []float64
}

// Diversifier is one selection strategy. Select returns up to K
// compact-local indices, First-led, drawn from Pool minus Excluded.
// Implementations must be safe for concurrent use and deterministic
// for identical requests (the suggestion cache depends on it).
type Diversifier interface {
	// Name is the stable registry name (lower-case, used in cache keys,
	// API requests and metric labels).
	Name() string
	// Params reports the strategy's resolved configuration for
	// discovery surfaces (GET /v1/strategies).
	Params() map[string]any
	// Select picks the suggestions. A ctx error aborts the selection;
	// partial results may be returned alongside the error.
	Select(ctx context.Context, req Request) ([]int, error)
}

// SelectAll runs d.Select for every request and returns the selections
// and errors in request order. All requests must be on the same Compact:
// a strategy whose selections on one compact can share work (the
// hitting-time strategy sweeps the compact's transition once for eight
// requests) takes them together; for every other strategy this is the
// loop over Select.
func SelectAll(ctx context.Context, d Diversifier, reqs []Request) ([][]int, []error) {
	if b, ok := d.(interface {
		selectAll(context.Context, []Request) ([][]int, []error)
	}); ok && len(reqs) > 0 {
		return b.selectAll(ctx, reqs)
	}
	selected := make([][]int, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		selected[i], errs[i] = d.Select(ctx, req)
	}
	return selected, errs
}

// Config is the strategy configuration embedded in core.Config. It is
// deliberately scalar-only: core.Config is persisted as JSON in the
// snapshot image, so no functions or interfaces may live here.
type Config struct {
	// Strategy is the engine's default selection strategy name; empty
	// means Default.
	Strategy string
	// MMRLambda trades relevance against novelty in the MMR selector
	// (0 < λ ≤ 1; default 0.7).
	MMRLambda float64
	// PFARLambda scales the PFAR topic-coverage bonus (default 1).
	PFARLambda float64
	// PFARTau scales the PFAR bonus by the caller's diversification
	// appetite (default 1).
	PFARTau float64
}

// Options parameterizes strategy construction: the shared scalar
// Config plus the hitting-time stage configuration (truncation depth,
// tolerance, teleport weights) the default strategy runs with.
type Options struct {
	Config
	Hitting hittingtime.Config
}

// Default is the registry name of the paper's selector.
const Default = "hitting"

// Fallback is the designated admission-control brownout strategy: the
// cheapest registered selector, used to degrade quality before
// shedding when the breaker is open and nothing is cached.
const Fallback = "relevance"

// ErrUnknown is returned by New for names no strategy registered.
var ErrUnknown = errors.New("diversify: unknown strategy")

// Factory builds one strategy instance from resolved options.
type Factory func(Options) Diversifier

var registry = map[string]Factory{}

// Register adds a strategy factory under a stable name. It panics on
// empty or duplicate names — registration is an init-time programming
// act, not a runtime input.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("diversify: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("diversify: strategy %q registered twice", name))
	}
	registry[name] = f
}

// Known reports whether a strategy name is registered.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds the named strategy. Unknown names wrap ErrUnknown.
func New(name string, opts Options) (Diversifier, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return f(opts), nil
}

// All builds one instance of every registered strategy.
func All(opts Options) map[string]Diversifier {
	out := make(map[string]Diversifier, len(registry))
	for name, f := range registry {
		out[name] = f(opts)
	}
	return out
}

func init() {
	Register(Default, func(o Options) Diversifier { return &hittingStrategy{cfg: o.Hitting} })
	Register("mmr", func(o Options) Diversifier { return newMMR(o) })
	Register("pfar", func(o Options) Diversifier { return newPFAR(o) })
	Register(Fallback, func(Options) Diversifier { return relevanceStrategy{} })
}
