package bench

import (
	"testing"

	"github.com/clof-go/clof/internal/lockapi"
)

// fakeSession serves reads from what it stored, optionally corrupting the
// value or reporting a miss.
type fakeSession struct {
	vals    map[string][]byte
	corrupt bool
	miss    bool
}

func (f *fakeSession) Get(_ lockapi.Proc, key []byte) ([]byte, bool) {
	if f.miss {
		return nil, false
	}
	v, ok := f.vals[string(key)]
	if !ok {
		v = preloadValue
	}
	if f.corrupt {
		v = append([]byte(nil), v...)
		v[len(v)/2] ^= 0x40
	}
	return v, true
}

func (f *fakeSession) Put(_ lockapi.Proc, key, value []byte) {
	f.vals[string(key)] = append([]byte(nil), value...)
}

func TestOutputChecksCatchWrongValues(t *testing.T) {
	spec := nativeSpec{keys: 100, readPct: 50}
	for _, c := range []struct {
		name        string
		fake        *fakeSession
		wantFailure bool
	}{
		{"correct", &fakeSession{}, false},
		{"corrupted", &fakeSession{corrupt: true}, true},
		{"miss", &fakeSession{miss: true}, true},
	} {
		c.fake.vals = map[string][]byte{}
		w := newWorker(0, c.fake, spec, 1)
		r := drive([]*worker{w}, 5000, nil)
		if r.ops != 5000 {
			t.Fatalf("%s: %d operations ran, want 5000", c.name, r.ops)
		}
		if got := w.failures > 0; got != c.wantFailure {
			t.Errorf("%s: %d failures in %d operations, want failures=%v", c.name, w.failures, r.ops, c.wantFailure)
		}
	}
}

// TestNativePhasesOnRealStore runs both phases at small scale: no request
// fails, and the traced phase records every native span kind.
func TestNativePhasesOnRealStore(t *testing.T) {
	spec := nativeSpec{
		name: "t", shards: 4, lock: "seq:clof:tkt-tkt-tkt-tkt", keys: 2000, readPct: 50, zipf: true,
		workers: 2, setups: 2, rate: 10_000, reps: 2, repOps: 20_000,
	}
	u, err := runNative(spec, 7, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if u.failed != 0 || len(u.setupS) != 2 || len(u.reps) != 2 || u.reads == 0 || u.updates == 0 {
		t.Fatalf("untraced phase: failed=%d setups=%d reps=%d reads=%d updates=%d",
			u.failed, len(u.setupS), len(u.reps), u.reads, u.updates)
	}
	for i, r := range u.reps {
		if r.ops != uint64(spec.repOps) {
			t.Errorf("repetition %d: the workers issued %d requests between them, want %d", i, r.ops, spec.repOps)
		}
	}
	tp, err := runNative(spec, 7, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if tp.failed != 0 {
		t.Fatalf("traced phase: %d failures", tp.failed)
	}
	for k := kStoreGet; k < nKinds; k++ {
		if k == kSimReq || k == kHold {
			continue
		}
		if tp.tr.merged(k).n == 0 {
			t.Errorf("traced phase recorded no %s span", kindNames[k])
		}
	}
}
