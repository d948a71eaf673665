package main

import (
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/topo"
)

// TestHierarchy pins the -platform/-levels choice: each known platform at 3
// and 4 levels selects the paper's configuration, and an unknown platform
// or any other depth is an error naming the accepted values.
func TestHierarchy(t *testing.T) {
	for _, tc := range []struct {
		platform string
		levels   int
		want     *topo.Hierarchy
		err      string
	}{
		{"x86", 3, topo.X86Hierarchy3(), ""},
		{"x86", 4, topo.X86Hierarchy4(), ""},
		{"armv8", 3, topo.ArmHierarchy3(), ""},
		{"armv8", 4, topo.ArmHierarchy4(), ""},
		{"arm", 4, nil, `unknown platform "arm" (want x86 or armv8)`},
		{"", 4, nil, `unknown platform "" (want x86 or armv8)`},
		{"x86", 2, nil, "-levels 2 (want 3 or 4)"},
		{"armv8", 5, nil, "-levels 5 (want 3 or 4)"},
		{"arm", 7, nil, "-levels 7 (want 3 or 4)"},
	} {
		h, err := hierarchy(tc.platform, tc.levels)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("hierarchy(%q, %d) error = %v, want %q", tc.platform, tc.levels, err, tc.err)
			}
		case err != nil:
			t.Errorf("hierarchy(%q, %d): %v", tc.platform, tc.levels, err)
		case h.String() != tc.want.String():
			t.Errorf("hierarchy(%q, %d) = %s, want %s", tc.platform, tc.levels, h, tc.want)
		}
	}
}
