// Package analysis is the core of clof-lint, the repository's static
// lock-discipline checker suite. It plays the role GenMC/VSync's static
// barrier checking plays in the paper's toolchain (§3.3/§4.2): where
// internal/mcheck verifies ordering discipline *dynamically* on small
// configurations, the analyzers here check it *statically* across all code,
// so a plain read of an atomically-written field or a Relaxed store on an
// unlock path is rejected at lint time rather than surfacing (maybe) in a
// 2–4 thread model check. A lock struct copied by value is left to go vet's
// copylocks check, which keys on the noCopy marker lockapi.Cell embeds.
// Spin-loop discipline and validate-before-escape for optimistic reads are
// left to internal/mcheck, which runs every such site: its seeded-mutation
// tests (TestPollLoopsMustSpin, TestCASRetryMustNotSpin, and the
// always-valid row of TestSeqlockMissingReadFenceCaught) fail when either
// rule is broken.
//
// The framework is deliberately shaped like golang.org/x/tools/go/analysis
// — an Analyzer with a Run(*Pass) hook reporting position-tagged
// diagnostics — but is built on the standard library alone (see
// internal/analysis/loader for why).
//
// # Waivers
//
// Every analyzer supports per-site waivers, because lock code has
// *intentional* relaxations (the Relaxed spin polls whose ordering is
// provided by a later CAS, holder-private fields published by a later
// Release). A waiver is a comment on the flagged line or the line directly
// above it:
//
//	//lint:<tag> <verb> <reason>
//
// e.g. //lint:order relaxed-ok poll only; the CAS below orders entry
//
// The reason is mandatory: a waiver without one is itself reported, and so
// is a waiver that suppresses no finding. Tags are per-analyzer (order,
// atomic).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"github.com/clof-go/clof/internal/analysis/loader"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name labels diagnostics, e.g. "orderpolicy".
	Name string
	// Tag is the waiver tag accepted in //lint:<tag> comments.
	Tag string
	// Doc is a one-paragraph description.
	Doc string
	// Run inspects one package and reports findings on the pass.
	Run func(*Pass)
}

// Pass is one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *loader.Package
	diags    []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// waiver is one parsed //lint: comment.
type waiver struct {
	pos    token.Pos
	text   string
	tag    string
	verb   string
	reason string
	// used records that the waiver suppressed at least one finding.
	used bool
}

// waiversByLine parses all //lint: comments in f, keyed by line number.
// Malformed waivers (no verb, or no reason) are reported via report.
func waiversByLine(fset *token.FileSet, f *ast.File, report func(pos token.Pos, msg string)) map[int][]*waiver {
	out := map[int][]*waiver{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			body, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			fields := strings.Fields(body)
			if len(fields) == 2 {
				// A bare waiver — tag and verb but no reason — is the one
				// shape worth its own message: it parses as intentional but
				// records no justification, which defeats the audit trail the
				// waiver mechanism exists for. Report it and do NOT let it
				// filter findings.
				report(c.Pos(), fmt.Sprintf("bare waiver %q: a waiver must state its reason (//lint:<tag> <verb> <reason>)", c.Text))
				continue
			}
			if len(fields) < 2 {
				report(c.Pos(), fmt.Sprintf("malformed waiver %q: want //lint:<tag> <verb> <reason>", c.Text))
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], &waiver{
				pos:    c.Pos(),
				text:   c.Text,
				tag:    fields[0],
				verb:   fields[1],
				reason: strings.Join(fields[2:], " "),
			})
		}
	}
	return out
}

// Run executes analyzers over pkgs, filters findings through waivers, and
// returns the active diagnostics sorted by position. Malformed waiver
// comments, and well-formed ones that suppressed no finding of this run
// (their analyzer is gone, or the finding was fixed), are reported under
// the pseudo-analyzer "waiver".
func Run(pkgs []*loader.Package, analyzers []*Analyzer) []Diagnostic {
	return run(pkgs, analyzers, true)
}

// Audit is Run with waiver filtering disabled: waived findings are
// reported too, and unused waivers are not. Used to enumerate every waived
// site (clof-lint -nowaiver).
func Audit(pkgs []*loader.Package, analyzers []*Analyzer) []Diagnostic {
	return run(pkgs, analyzers, false)
}

func run(pkgs []*loader.Package, analyzers []*Analyzer, applyWaivers bool) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		// Waiver tables for this package, one per file.
		fset := pkg.Fset
		waivers := map[string]map[int][]*waiver{}
		for _, f := range pkg.Syntax {
			name := fset.Position(f.Pos()).Filename
			waivers[name] = waiversByLine(fset, f, func(pos token.Pos, msg string) {
				out = append(out, Diagnostic{Pos: fset.Position(pos), Analyzer: "waiver", Message: msg})
			})
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if applyWaivers && waived(waivers[d.Pos.Filename], a.Tag, d.Pos.Line) {
					continue
				}
				out = append(out, d)
			}
		}
		if applyWaivers {
			for _, byLine := range waivers {
				for _, ws := range byLine {
					for _, w := range ws {
						if !w.used {
							out = append(out, Diagnostic{Pos: fset.Position(w.pos), Analyzer: "waiver",
								Message: fmt.Sprintf("unused waiver %q: it suppressed no finding", w.text)})
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// waived reports whether a waiver for tag covers line (same line or the
// line directly above), marking every covering waiver used.
func waived(byLine map[int][]*waiver, tag string, line int) bool {
	hit := false
	for _, l := range []int{line, line - 1} {
		for _, w := range byLine[l] {
			if w.tag == tag {
				w.used = true
				hit = true
			}
		}
	}
	return hit
}
