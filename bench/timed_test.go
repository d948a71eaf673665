package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/topo"
)

func newLock(t *testing.T, name string) lockapi.Lock {
	t.Helper()
	e, err := catalog.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.New(topo.X86Server())
}

// TestWrapForwardsExactlyTheRoutedCapabilities: the wrapper is a SeqReader
// exactly when the inner lock is, and refuses an RWLocker, whose shared
// read path it would hide from the store.
func TestWrapForwardsExactlyTheRoutedCapabilities(t *testing.T) {
	tr := newTracer(1, hostClock(), false, false)
	for _, c := range []struct {
		name string
		seq  bool
	}{{"tkt", false}, {"clof:tkt-tkt-tkt-tkt", false}, {"seq:tkt", true}, {"seq:clof:tkt-tkt-tkt-tkt", true}} {
		w, err := wrap(newLock(t, c.name), tr)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, ok := w.(lockapi.SeqReader); ok != c.seq {
			t.Errorf("%s: wrapper SeqReader = %v, want %v", c.name, ok, c.seq)
		}
		if _, ok := w.(lockapi.RWLocker); ok {
			t.Errorf("%s: wrapper claims RWLocker", c.name)
		}
	}
	for _, name := range []string{"rwlock", "seq:rwlock"} {
		if _, err := wrap(newLock(t, name), tr); err == nil {
			t.Errorf("%s: wrapping an RWLocker was not refused", name)
		}
	}
}

// TestWrappedSeqStoreServesOptimisticReads: a store over wrapped seq:tkt
// still takes the optimistic read path, and the tracer sees its spans.
func TestWrappedSeqStoreServesOptimisticReads(t *testing.T) {
	spec := nativeSpec{name: "t", shards: 4, lock: "seq:tkt", keys: 500}
	tr := newTracer(1, hostClock(), false, true)
	kv, err := openStore(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	s := kv.NewSession()
	p := lockapi.NewNativeProc(0)
	tr.startTrack("t")
	for i := 0; i < 300; i++ {
		tr.begin(p, kStoreGet)
		if _, ok := s.Get(p, kvstore.Key(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
		tr.end(p)
		tr.begin(p, kStorePut)
		s.Put(p, kvstore.Key(i), preloadValue)
		tr.end(p)
	}
	if occ := sumOCC(kv.OCCStats()); occ.Optimistic == 0 {
		t.Fatal("no optimistic read through the wrapped seq:tkt store")
	}
	for _, k := range []spanKind{kStoreGet, kReadSeq, kKVGet, kValidate, kGetSelf, kStorePut, kAcquire, kKVCS, kRelease, kPutSelf} {
		if n := tr.merged(k).n; n != 300 {
			t.Errorf("%s: %d spans, want 300", kindNames[k], n)
		}
	}
	// Spans of a kept request share its id, and children name their root.
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, []spanSet{tr.spanSet("native")}); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	roots := map[float64]string{}
	parents := map[float64][]string{}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		req := ev.Args["req"].(float64)
		if parent, ok := ev.Args["parent"].(string); ok {
			parents[req] = append(parents[req], parent)
		} else {
			roots[req] = ev.Name
		}
	}
	// 600 requests on one slot: requests 1, 257 and 513 are sampled.
	if len(roots) != 3 {
		t.Fatalf("kept %d requests, want 3: %v", len(roots), roots)
	}
	for req, root := range roots {
		if len(parents[req]) == 0 {
			t.Errorf("request %v (%s) kept no child span", req, root)
		}
		for _, p := range parents[req] {
			if p != root {
				t.Errorf("request %v: child names parent %s, root is %s", req, p, root)
			}
		}
	}
}
