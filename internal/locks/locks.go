// Package locks implements the NUMA-oblivious spinlocks of the paper's §2.1:
// test-and-set (TAS), test-and-test-and-set (TTAS), exponential backoff (BO),
// Ticketlock, MCS, CLH, and Hemlock (with and without the x86-specific
// Coherence-Traffic-Reduction optimization).
//
// These are CLoF's "basic locks": simple enough to verify exhaustively on
// weak memory models (internal/mcheck does so) and composable by the CLoF
// generator into multi-level NUMA-aware locks.
//
// Every lock implements lockapi.Lock. Queue-based locks represent their nodes
// as integer handles into per-lock tables so the same code runs natively, on
// the NUMA simulator, and in the model checker. Handle 0 always means "nil".
package locks

import (
	"fmt"
	"sort"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// Type describes a basic lock kind: its short name (used in composition
// notation like "tkt-clh-tkt-tkt") and a constructor.
type Type struct {
	// Name is the abbreviation used throughout the paper's figures.
	Name string
	// New constructs a fresh, unheld lock instance.
	New func() lockapi.Lock
}

// String returns the type's name.
func (t Type) String() string { return t.Name }

// allTypes maps every known basic-lock name to its constructor. The "hem"
// entry is architecture-dependent and therefore only present via BasicLocks.
var allTypes = map[string]Type{
	"tas":     {Name: "tas", New: func() lockapi.Lock { return NewTAS() }},
	"ttas":    {Name: "ttas", New: func() lockapi.Lock { return NewTTAS() }},
	"bo":      {Name: "bo", New: func() lockapi.Lock { return NewBackoff() }},
	"tkt":     {Name: "tkt", New: func() lockapi.Lock { return NewTicket() }},
	"mcs":     {Name: "mcs", New: func() lockapi.Lock { return NewMCS() }},
	"clh":     {Name: "clh", New: func() lockapi.Lock { return NewCLH() }},
	"hem":     {Name: "hem", New: func() lockapi.Lock { return NewHemlock(false) }},
	"hem-ctr": {Name: "hem-ctr", New: func() lockapi.Lock { return NewHemlock(true) }},
	"qspin":   {Name: "qspin", New: func() lockapi.Lock { return NewQSpin() }},
}

// ByName looks up a lock type by its abbreviation ("tkt", "mcs", "clh",
// "hem", "hem-ctr", "qspin", "tas", "ttas", "bo"). HBO is constructed
// directly with NewHBO (it needs the machine topology).
func ByName(name string) (Type, bool) {
	t, ok := allTypes[name]
	return t, ok
}

// Names returns all registered type names, sorted.
func Names() []string {
	names := make([]string, 0, len(allTypes))
	for n := range allTypes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BasicLocks returns the paper's default basic-lock set for the CLoF
// generator — Ticketlock, MCS, CLH, and Hemlock — with Hemlock's CTR
// optimization enabled on x86 and disabled on Armv8, exactly as the paper
// does from §3.2 onward ("hem on x86 denotes Hemlock with CTR enabled,
// whereas hem on Armv8 denotes Hemlock with CTR disabled").
func BasicLocks(arch topo.Arch) []Type {
	hem := Type{Name: "hem"}
	if arch == topo.X86 {
		hem.New = func() lockapi.Lock { return NewHemlock(true) }
	} else {
		hem.New = func() lockapi.Lock { return NewHemlock(false) }
	}
	return []Type{allTypes["tkt"], allTypes["mcs"], allTypes["clh"], hem}
}

// MustType is ByName that panics on unknown names; for tests and examples.
func MustType(name string) Type {
	t, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("locks: unknown lock type %q", name))
	}
	return t
}
