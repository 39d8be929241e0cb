package routing

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"gmp/internal/network"
)

// Flags describe per-protocol traits the harness must honor when it
// instantiates, runs, or audits a protocol. They are declared once in the
// protocol's Spec so drivers never hard-code protocol names.
type Flags uint32

const (
	// FlagCentralized marks protocols whose Start needs the ground-truth
	// network (the SMT lower bound). Make rejects a Ctx without one.
	FlagCentralized Flags = 1 << iota
	// FlagLambda marks protocols parameterized by PBM's λ trade-off. Make
	// rejects a Ctx that does not set it, and campaign drivers apply the
	// paper's best-of-λ rule to exactly these protocols.
	FlagLambda
	// FlagConcurrent marks protocols that intentionally route redundant
	// concurrent copies toward the same destination (MCFR's two face
	// directions). Audits must allow duplicate deliveries for them, and the
	// engine defers per-destination drop billing until the run ends so the
	// delivered+dropped conservation invariant stays exact.
	FlagConcurrent
)

// Ctx carries the only legal per-session inputs a protocol constructor may
// consume. Everything else a protocol learns must come through its NodeView,
// so the Ctx surface doubles as the paper's §2 knowledge-model boundary.
type Ctx struct {
	// Network is the ground-truth deployment, consumed only by centralized
	// baselines (FlagCentralized). Distributed protocols never see it.
	Network *network.Network
	// Lambda is PBM's trade-off parameter; meaningful only when LambdaSet.
	Lambda float64
	// LambdaSet distinguishes an explicit λ=0 from an absent one.
	LambdaSet bool
	// K is LGK's group-size bound; zero selects the default (2).
	K int
}

// Spec declares one protocol to the registry: its harness-facing name, its
// constructor, and its traits. Registering a Spec is the single step needed
// to surface a protocol in every campaign, flag listing, and viz tool.
type Spec struct {
	// Name is the identifier campaigns and flags use (e.g. "GMP", "PBM").
	// It need not equal the instance's Name(), which may embed parameters
	// ("PBM(λ=0.3)", "LGK2").
	Name string
	// New builds an instance from the per-session Ctx. Make validates the
	// Ctx against Flags first, so New may trust its required fields.
	New func(Ctx) Protocol
	// Flags are the protocol's traits (see the Flag constants).
	Flags Flags
	// Progress is the per-hop progress rule the protocol's greedy-mode
	// copies obey (see AuditProgress).
	Progress Progress
	// PaperRank orders the paper's §5 protocol set (1-based) for PaperSet
	// and Specs; zero marks extras (ablations, post-paper families) listed
	// after the ranked set in name order.
	PaperRank int
}

// Typed registry errors. Callers match them with errors.Is.
var (
	ErrUnknownProtocol = errors.New("routing: unknown protocol")
	ErrNeedLambda      = errors.New("routing: protocol requires Ctx.Lambda (set LambdaSet)")
	ErrNeedNetwork     = errors.New("routing: centralized protocol requires Ctx.Network")
	ErrDuplicateSpec   = errors.New("routing: protocol already registered")
	ErrBadSpec         = errors.New("routing: invalid Spec")
)

var registry = make(map[string]Spec)

// Register adds a Spec to the registry, rejecting empty names, nil
// constructors, and duplicates.
func Register(sp Spec) error {
	if sp.Name == "" || sp.New == nil {
		return fmt.Errorf("%w: need Name and New", ErrBadSpec)
	}
	if _, dup := registry[sp.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSpec, sp.Name)
	}
	registry[sp.Name] = sp
	return nil
}

// MustRegister is Register for package init blocks.
func MustRegister(sp Spec) {
	if err := Register(sp); err != nil {
		panic(err)
	}
}

// Lookup returns the Spec registered under name.
func Lookup(name string) (Spec, bool) {
	sp, ok := registry[name]
	return sp, ok
}

// LookupFold is Lookup ignoring case, for command-line flags.
func LookupFold(name string) (Spec, bool) {
	for _, sp := range registry {
		if strings.EqualFold(sp.Name, name) {
			return sp, true
		}
	}
	return Spec{}, false
}

// Names returns every registered protocol name in Specs order: the paper's
// set first, then extras. It is the set -protocol flags accept.
func Names() []string {
	var out []string
	for _, sp := range Specs() {
		out = append(out, sp.Name)
	}
	return out
}

// Specs returns every registered Spec: the paper's ranked set first (by
// PaperRank), then extras in name order.
func Specs() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, sp := range registry {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].PaperRank, out[j].PaperRank
		switch {
		case ri > 0 && rj > 0:
			return ri < rj
		case ri > 0 || rj > 0:
			return ri > 0
		default:
			return out[i].Name < out[j].Name
		}
	})
	return out
}

// PaperSet returns the names of the paper's §5 protocol set in figure order.
func PaperSet() []string {
	var out []string
	for _, sp := range Specs() {
		if sp.PaperRank > 0 {
			out = append(out, sp.Name)
		}
	}
	return out
}

// Make validates ctx against the named protocol's Flags and builds an
// instance. Unknown names and missing Ctx fields return typed errors — the
// registry never panics on caller input.
func Make(name string, ctx Ctx) (Protocol, error) {
	sp, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProtocol, name)
	}
	if sp.Flags&FlagLambda != 0 && !ctx.LambdaSet {
		return nil, fmt.Errorf("%w: %q", ErrNeedLambda, name)
	}
	if sp.Flags&FlagCentralized != 0 && ctx.Network == nil {
		return nil, fmt.Errorf("%w: %q", ErrNeedNetwork, name)
	}
	return sp.New(ctx), nil
}
