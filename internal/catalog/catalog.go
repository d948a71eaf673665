// Package catalog enumerates the repository's lock families behind one
// machine-parameterized constructor list, for harnesses that sweep "every
// lock" — the figures' fault-plan sweeps (internal/figures Chaos and
// Collapse), the trylock conformance suite (internal/locktest), and the
// clof-obs command.
//
// It exists as a separate package (rather than in locktest) because the
// lock packages' own tests import locktest: a catalog inside locktest would
// close an import cycle through internal/locks et al.
//
// The catalog order is fixed and documented: basics first (sorted by name),
// then the NUMA-aware singles, then the hierarchical families. Sweeps that
// iterate in catalog order are therefore deterministic without sorting.
package catalog

import (
	"fmt"
	"strings"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/cna"
	"github.com/clof-go/clof/internal/cr"
	"github.com/clof-go/clof/internal/hmcs"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/rwlock"
	"github.com/clof-go/clof/internal/seqlock"
	"github.com/clof-go/clof/internal/shfllock"
	"github.com/clof-go/clof/internal/topo"
)

// Entry is one catalog lock: a stable name, the family it belongs to, and a
// constructor taking the target machine (NUMA-oblivious locks ignore it).
type Entry struct {
	// Name identifies the lock in reports, e.g. "mcs", "c-bo-mcs",
	// "clof:tkt-clh-tkt-tkt".
	Name string
	// Family groups entries in reports (the chaos sweep's family column):
	// "basic", "hbo", "cna", "shfl", "rwlock", "hmcs", "cohort", "clof",
	// "cr", "seq".
	Family string
	// New builds a fresh, unheld instance for machine m.
	New func(m *topo.Machine) lockapi.Lock
}

// hierFor returns the paper's hierarchy configuration for m's architecture
// (the 4-level configurations of §5.2.1).
func hierFor(m *topo.Machine) *topo.Hierarchy {
	if m.Arch == topo.X86 {
		return topo.MustHierarchy(m, topo.Core, topo.CacheGroup, topo.NUMA, topo.System)
	}
	return topo.MustHierarchy(m, topo.CacheGroup, topo.NUMA, topo.Package, topo.System)
}

// compFor resolves a composition string against the catalog machine.
func compFor(notation string) clof.Composition {
	comp, err := clof.ParseComposition(notation)
	if err != nil {
		panic(err)
	}
	return comp
}

// Locks returns the full catalog in its fixed order. Each call returns
// fresh Entry values; constructors may be called many times.
func Locks() []Entry {
	var out []Entry
	// Basic NUMA-oblivious locks, in locks.Names() (sorted) order.
	for _, name := range locks.Names() {
		t := locks.MustType(name)
		out = append(out, Entry{
			Name:   t.Name,
			Family: "basic",
			New:    func(*topo.Machine) lockapi.Lock { return t.New() },
		})
	}
	// NUMA-aware single-level-aware baselines.
	out = append(out,
		Entry{Name: "hbo", Family: "hbo", New: func(m *topo.Machine) lockapi.Lock { return locks.NewHBO(m) }},
		Entry{Name: "cna", Family: "cna", New: func(m *topo.Machine) lockapi.Lock { return cna.New(m) }},
		Entry{Name: "shfllock", Family: "shfl", New: func(m *topo.Machine) lockapi.Lock { return shfllock.New(m) }},
		// The NUMA-aware reader-writer lock: its exclusive path is a proper
		// mutex (writers through MCS, then reader drain), and it additionally
		// satisfies lockapi.RWLocker, so the sharded store's read paths take
		// shared acquisitions on it.
		Entry{Name: "rwlock", Family: "rwlock", New: func(m *topo.Machine) lockapi.Lock {
			return rwlock.New(m, topo.CacheGroup, locks.NewMCS())
		}},
	)
	// Hierarchical baselines and CLoF compositions.
	out = append(out,
		Entry{Name: "hmcs<4>", Family: "hmcs", New: func(m *topo.Machine) lockapi.Lock {
			return hmcs.Must(hierFor(m))
		}},
		// Classic lock cohorting (PPoPP'12): a 2-level CLoF composition,
		// local locks per NUMA node under a global lock.
		Entry{Name: "c-bo-mcs", Family: "cohort", New: func(m *topo.Machine) lockapi.Lock {
			return clof.Must(topo.MustHierarchy(m, topo.NUMA, topo.System), compFor("mcs-bo"))
		}},
		Entry{Name: "c-tkt-tkt", Family: "cohort", New: func(m *topo.Machine) lockapi.Lock {
			return clof.Must(topo.MustHierarchy(m, topo.NUMA, topo.System), compFor("tkt-tkt"))
		}},
		Entry{Name: "clof:tkt-tkt-tkt-tkt", Family: "clof", New: func(m *topo.Machine) lockapi.Lock {
			return clof.Must(hierFor(m), compFor("tkt-tkt-tkt-tkt"))
		}},
		Entry{Name: "clof:mcs-mcs-mcs-mcs", Family: "clof", New: func(m *topo.Machine) lockapi.Lock {
			return clof.Must(hierFor(m), compFor("mcs-mcs-mcs-mcs"))
		}},
		Entry{Name: "clof:tkt-clh-tkt-tkt", Family: "clof", New: func(m *topo.Machine) lockapi.Lock {
			return clof.Must(hierFor(m), compFor("tkt-clh-tkt-tkt"))
		}},
		Entry{Name: "clof:tas-fastpath", Family: "clof", New: func(m *topo.Machine) lockapi.Lock {
			return clof.Must(hierFor(m), compFor("tkt-tkt-tkt-tkt"), clof.WithTASFastPath())
		}},
	)
	// Concurrency-restricted variants (internal/cr): the Dice & Kogan
	// admission-control combinator over a global-spinning basic lock, a
	// local-spinning one, and a full CLoF composition — the wrapper is
	// generic, these three cover its interaction space (global spin, queue
	// handoff, hierarchical handoff).
	out = append(out,
		Entry{Name: "cr:tkt", Family: "cr", New: func(m *topo.Machine) lockapi.Lock {
			return cr.Restrict(m, locks.NewTicket(), cr.Opts{})
		}},
		Entry{Name: "cr:mcs", Family: "cr", New: func(m *topo.Machine) lockapi.Lock {
			return cr.Restrict(m, locks.NewMCS(), cr.Opts{})
		}},
		Entry{Name: "cr:clof:tkt-tkt-tkt-tkt", Family: "cr", New: func(m *topo.Machine) lockapi.Lock {
			return cr.Restrict(m, clof.Must(hierFor(m), compFor("tkt-tkt-tkt-tkt")), cr.Opts{})
		}},
	)
	// Seqlock-wrapped variants (internal/seqlock): the writer-side version
	// bump over a basic lock and over the full CLoF composition — the seq:
	// family whose lockapi.SeqReader capability the sharded store's
	// optimistic read path keys on. Other combinations resolve dynamically
	// (see dynamic); these two are the swept representatives.
	out = append(out,
		Entry{Name: "seq:tkt", Family: "seq", New: func(*topo.Machine) lockapi.Lock {
			return seqlock.Wrap(locks.NewTicket())
		}},
		Entry{Name: "seq:clof:tkt-tkt-tkt-tkt", Family: "seq", New: func(m *topo.Machine) lockapi.Lock {
			return seqlock.Wrap(clof.Must(hierFor(m), compFor("tkt-tkt-tkt-tkt")))
		}},
	)
	return out
}

// ByName returns the named entry.
func ByName(name string) (Entry, bool) {
	for _, e := range Locks() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Lookup returns the named entry, or an error that names the full catalog —
// the one place sweep CLIs resolve user-supplied lock names. Names the
// static list doesn't carry still resolve when they compose the wrapper
// families over a resolvable inner lock ("seq:rwlock", "seq:cr:tkt", ...).
func Lookup(name string) (Entry, error) {
	if e, ok := ByName(name); ok {
		return e, nil
	}
	return dynamic(name)
}

// dynamic resolves wrapper-composed names absent from the static list: a
// "seq:" or "cr:" prefix over any resolvable inner name, recursively, so
// every wrapper stacking is nameable without a catalog entry per
// combination. The static entries win first (Lookup checks ByName before
// this), keeping the swept representatives canonical. cr: is rejected over
// the reader-capable families, as cr.Restrict rejects their locks.
func dynamic(name string) (Entry, error) {
	wrappers := []struct {
		prefix, family string
		wrap           func(m *topo.Machine, inner lockapi.Lock) lockapi.Lock
	}{
		{"seq:", "seq", func(_ *topo.Machine, inner lockapi.Lock) lockapi.Lock {
			return seqlock.Wrap(inner)
		}},
		{"cr:", "cr", func(m *topo.Machine, inner lockapi.Lock) lockapi.Lock {
			return cr.Restrict(m, inner, cr.Opts{})
		}},
	}
	for _, w := range wrappers {
		rest, ok := strings.CutPrefix(name, w.prefix)
		if !ok {
			continue
		}
		inner, err := Lookup(rest)
		if err != nil {
			return Entry{}, err
		}
		if w.family == "cr" && (inner.Family == "seq" || inner.Family == "rwlock") {
			return Entry{}, fmt.Errorf("lock %q: cr: restricts the exclusive path only and does not wrap the %s family's reader path; stack seq: outside instead (seq:cr:<lock>)",
				name, inner.Family)
		}
		w := w
		return Entry{Name: name, Family: w.family, New: func(m *topo.Machine) lockapi.Lock {
			return w.wrap(m, inner.New(m))
		}}, nil
	}
	return Entry{}, fmt.Errorf("unknown lock %q (catalog: %s; wrapper prefixes seq:/cr: compose over any entry, cr: over exclusive ones only)",
		name, strings.Join(Names(), ", "))
}

// Names lists the catalog names in catalog order.
func Names() []string {
	ls := Locks()
	out := make([]string, len(ls))
	for i, e := range ls {
		out[i] = e.Name
	}
	return out
}
