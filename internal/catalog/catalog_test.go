package catalog

import (
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

// TestCatalogConstructsEverywhere: every entry builds and performs one
// uncontended acquire/release on both evaluation platforms.
func TestCatalogConstructsEverywhere(t *testing.T) {
	for _, m := range []*topo.Machine{topo.X86Server(), topo.Armv8Server()} {
		for _, e := range Locks() {
			l := e.New(m)
			p := lockapi.NewNativeProc(0)
			c := l.NewCtx()
			l.Acquire(p, c)
			l.Release(p, c)
		}
	}
}

func TestCatalogOrderStable(t *testing.T) {
	a, b := Names(), Names()
	if len(a) == 0 {
		t.Fatal("empty catalog")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("catalog order unstable at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate catalog name %q", n)
		}
		seen[n] = true
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("mcs"); !ok {
		t.Error("mcs missing from catalog")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name resolved")
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("mcs")
	if err != nil || e.Name != "mcs" {
		t.Errorf("Lookup(mcs) = %v, %v", e.Name, err)
	}
	_, err = Lookup("nope")
	if err == nil {
		t.Fatal("Lookup(nope) did not fail")
	}
	// The error must name the catalog so CLI users can self-correct.
	if !strings.Contains(err.Error(), "mcs") || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Lookup error unhelpful: %v", err)
	}
}

// TestLookupDynamicWrappers: wrapper-prefixed names outside the static list
// resolve by composing seq:/cr: over any resolvable inner lock (cr: over
// exclusive ones), and the built locks carry the right capabilities.
func TestLookupDynamicWrappers(t *testing.T) {
	m := topo.X86Server()
	for _, name := range []string{"seq:rwlock", "seq:mcs", "seq:cr:tkt", "seq:cr:clof:tkt-tkt-tkt-tkt", "cr:cr:mcs"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if e.Name != name {
			t.Errorf("Lookup(%s) named itself %q", name, e.Name)
		}
		l := e.New(m)
		p := lockapi.NewNativeProc(0)
		c := l.NewCtx()
		l.Acquire(p, c)
		l.Release(p, c)
		if strings.HasPrefix(name, "seq:") {
			if _, ok := l.(lockapi.SeqReader); !ok {
				t.Errorf("%s lost the SeqReader capability", name)
			}
		}
	}
	// The seqlock wrapper preserves the inner reader-writer path.
	e, _ := Lookup("seq:rwlock")
	if _, ok := e.New(m).(lockapi.RWLocker); !ok {
		t.Error("seq:rwlock lost the RWLocker capability")
	}
	// A bogus inner lock fails no matter how it is wrapped.
	for _, name := range []string{"seq:nope", "cr:seq:nope", "seq:"} {
		if _, err := Lookup(name); err == nil {
			t.Errorf("Lookup(%s) resolved a bogus inner lock", name)
		}
	}
}

// TestLookupRejectsCROverReaders: cr: restricts the exclusive path only, so
// it does not stack over the reader-capable families; the error names the
// stacking that builds the restricted seqlock instead.
func TestLookupRejectsCROverReaders(t *testing.T) {
	for _, name := range []string{"cr:seq:tkt", "cr:rwlock", "cr:seq:rwlock", "seq:cr:seq:tkt", "cr:cr:seq:tkt"} {
		_, err := Lookup(name)
		if err == nil {
			t.Errorf("Lookup(%s) resolved cr: over a reader-capable lock", name)
			continue
		}
		if !strings.Contains(err.Error(), "seq:cr:") {
			t.Errorf("Lookup(%s) error does not name seq:cr:: %v", name, err)
		}
	}
}
