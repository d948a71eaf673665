package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/analysis/atest"
)

// TestRepoClean is the dogfood gate: the whole repository must lint clean
// (every intentional relaxation carries a //lint: waiver with a reason).
func TestRepoClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-dir", atest.RepoRoot(t, "")}, &out, &errb)
	if code != 0 {
		t.Fatalf("clof-lint on the repository: exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clof-lint on the repository printed diagnostics:\n%s", out.String())
	}
}

// TestBadFixtureCaught runs the driver on the self-contained defective
// module under testdata and asserts a nonzero exit with every analyzer
// represented in the output.
func TestBadFixtureCaught(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-dir", filepath.Join("testdata", "badmod")}, &out, &errb)
	if code != 1 {
		t.Fatalf("clof-lint on testdata/badmod: exit %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	got := out.String()
	for _, a := range all {
		if !strings.Contains(got, "["+a.Name+"]") {
			t.Errorf("no [%s] finding on testdata/badmod; output:\n%s", a.Name, got)
		}
	}
	if !strings.Contains(got, filepath.Join("badlock", "badlock.go")) {
		t.Errorf("findings do not name badlock/badlock.go; output:\n%s", got)
	}
}
