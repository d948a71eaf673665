package analysis_test

import (
	"go/ast"
	"strings"
	"testing"

	"github.com/clof-go/clof/internal/analysis"
	"github.com/clof-go/clof/internal/analysis/atest"
)

// dummy flags every function whose name starts with "Flagged" — a minimal
// analyzer for exercising the framework's waiver filtering.
var dummy = &analysis.Analyzer{
	Name: "dummy",
	Tag:  "dummy",
	Doc:  "flags functions named Flagged* (framework test only)",
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Pkg.Syntax {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Flagged") {
					pass.Reportf(fd.Name.Pos(), "function %s is flagged", fd.Name.Name)
				}
			}
		}
	},
}

// TestWaiverReasonEnforcement is the regression test for the waiver parser:
// a reasoned waiver filters its finding, a bare waiver (no reason) filters
// nothing and is itself reported, a verb-less comment is malformed, and a
// reasoned waiver with no finding to suppress is reported as unused.
func TestWaiverReasonEnforcement(t *testing.T) {
	pkgs := atest.Load(t, "waiverfix")
	diags := analysis.Run(pkgs, []*analysis.Analyzer{dummy})

	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	joined := strings.Join(got, "\n")

	if strings.Contains(joined, "FlaggedProperly") {
		t.Errorf("reasoned waiver did not filter its finding:\n%s", joined)
	}
	if !strings.Contains(joined, "FlaggedBare") {
		t.Errorf("bare waiver (missing reason) filtered a finding it must not:\n%s", joined)
	}
	if !strings.Contains(joined, "bare waiver") {
		t.Errorf("bare waiver was not itself reported:\n%s", joined)
	}
	if !strings.Contains(joined, "FlaggedMalformed") {
		t.Errorf("malformed waiver filtered a finding it must not:\n%s", joined)
	}
	if !strings.Contains(joined, "malformed waiver") {
		t.Errorf("verb-less waiver was not reported as malformed:\n%s", joined)
	}
	var unused []string
	for _, d := range diags {
		if d.Analyzer == "waiver" && strings.Contains(d.Message, "unused waiver") {
			unused = append(unused, d.String())
		}
	}
	if len(unused) != 1 || !strings.Contains(unused[0], "nothing here is flagged") {
		t.Errorf("want exactly one unused-waiver report, for the waiver above Unneeded; got %q\n%s", unused, joined)
	}

	// Audit mode reports the properly waived finding too.
	audit := atest.Format(analysis.Audit(pkgs, []*analysis.Analyzer{dummy}))
	if !strings.Contains(audit, "FlaggedProperly") {
		t.Errorf("audit mode hid a waived finding:\n%s", audit)
	}
	if strings.Contains(audit, "unused waiver") {
		t.Errorf("audit mode reported an unused waiver; it applies no waivers:\n%s", audit)
	}
}
