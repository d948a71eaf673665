package figures

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// fakeTput is the fake measurement TestScripted sweeps: a pure function of
// the composition and thread count whose HC and LC rankings differ.
func fakeTput(c clof.Composition, n int) float64 {
	h := 0
	for _, r := range c.String() {
		h = h*31 + int(r)
	}
	base := h % 16
	return float64(base) + float64(n)*float64(15-base)/8
}

// TestScripted drives the scripted benchmark with a fake measurement and no
// simulator: the point keys, the spec's lock list, the grid order of every
// measurement, the extra points' results and the selection must all come
// out as documented, at any worker-pool width.
func TestScripted(t *testing.T) {
	comps := clof.Generate(locks.BasicLocks(topo.X86), 2)
	grid := []int{32, 1, 8}
	run := func(c clof.Composition, n int, seed uint64) exp.Sample {
		return exp.Sample{Throughput: fakeTput(c, n)}
	}
	extra := []exp.Point{
		{Key: "lock=base/threads=1", Run: func(uint64) exp.Sample { return exp.Sample{Throughput: 100} }},
		{Key: "lock=base/threads=8", Run: func(uint64) exp.Sample { return exp.Sample{Throughput: 200} }},
	}
	spec := exp.Spec{Name: "scripted", Locks: []string{"base"}, Threads: grid}

	want := make([]clof.Measurement, len(comps))
	var wantLocks, wantKeys []string
	for i, c := range comps {
		want[i].Comp = c
		wantLocks = append(wantLocks, c.String())
		for _, n := range grid {
			want[i].Points = append(want[i].Points, clof.Point{Threads: n, Throughput: fakeTput(c, n)})
			wantKeys = append(wantKeys, fmt.Sprintf("comp=%s/threads=%d", c, n))
		}
	}
	wantLocks = append(wantLocks, "base")
	wantKeys = append(wantKeys, extra[0].Key, extra[1].Key)
	wantSel, err := clof.Select(want)
	if err != nil {
		t.Fatal(err)
	}
	if wantSel.HCBest.Comp.String() == wantSel.LCBest.Comp.String() {
		t.Fatal("fake measurement does not separate the two policies")
	}

	sweep := func(jobs int) clof.Selection {
		m := exp.NewManifest(filepath.Join(t.TempDir(), "results.json"))
		sel, base, err := Scripted(Options{Jobs: jobs, Manifest: m}, spec, comps, run, extra...)
		if err != nil {
			t.Fatal(err)
		}
		if specs := m.Specs(); len(specs) != 1 || !reflect.DeepEqual(specs[0].Locks, wantLocks) {
			t.Errorf("-j %d: spec locks = %v, want the compositions, then base", jobs, specs)
		}
		var keys []string
		for _, r := range m.Results() {
			keys = append(keys, r.Key)
		}
		if !reflect.DeepEqual(keys, wantKeys) {
			t.Errorf("-j %d: keys = %v, want %v", jobs, keys, wantKeys)
		}
		if len(base) != 2 || base[0].Key != extra[0].Key || base[0].Throughput() != 100 ||
			base[1].Key != extra[1].Key || base[1].Throughput() != 200 {
			t.Errorf("-j %d: extra results out of order: %+v", jobs, base)
		}
		if !reflect.DeepEqual(sel, wantSel) {
			t.Errorf("-j %d: selection = HC %s LC %s worst %s, want HC %s LC %s worst %s", jobs,
				sel.HCBest.Comp, sel.LCBest.Comp, sel.Worst.Comp,
				wantSel.HCBest.Comp, wantSel.LCBest.Comp, wantSel.Worst.Comp)
		}
		return sel
	}
	if a, b := sweep(1), sweep(4); !reflect.DeepEqual(a, b) {
		t.Error("selection differs between -j 1 and -j 4")
	}
	if spec.Locks[0] != "base" || len(spec.Locks) != 1 {
		t.Errorf("caller's spec.Locks modified: %v", spec.Locks)
	}
}

// TestScriptedErrors: a failed composition point is reported by key, and
// an empty composition list is an error, not a zero selection.
func TestScriptedErrors(t *testing.T) {
	comps := clof.Generate(locks.BasicLocks(topo.X86), 1)
	spec := exp.Spec{Name: "scripted-errors", Threads: []int{1, 4}}
	failing := func(c clof.Composition, n int, seed uint64) exp.Sample {
		if c.String() == "mcs" && n == 4 {
			return exp.Sample{Err: "deadlock"}
		}
		return exp.Sample{Throughput: 1}
	}
	sel, _, err := Scripted(Options{}, spec, comps, failing)
	if err == nil || !strings.Contains(err.Error(), "comp=mcs/threads=4: deadlock") {
		t.Errorf("err = %v, want the failed point's key and message", err)
	}
	if len(sel.All) != len(comps) {
		t.Errorf("selection over %d compositions, want %d despite the failure", len(sel.All), len(comps))
	}
	if _, _, err := Scripted(Options{}, spec, nil, failing); err == nil {
		t.Error("no compositions: want an error")
	}
}
