#!/bin/sh
# doccheck enforces the repository's godoc discipline with nothing beyond
# POSIX sh + awk + grep (no go/ast tooling, so CI needs only the toolchain
# it already has). Two rules, both on non-test Go files outside testdata:
#
#   1. every non-main package carries a package comment
#      ("// Package <name> ..."), and
#   2. every exported top-level declaration — func, type, var, const at
#      column 0, and exported methods on exported receivers — is
#      immediately preceded by a comment line. Methods on unexported
#      receivers are exempt: godoc does not render them.
#   3. no orphan docs: every markdown file under docs/ is linked (by file
#      name) from README.md or from another file under docs/ — a doc
#      nobody can reach from the front page is a doc nobody reads.
#   4. no dangling test citations: every Test... identifier in DESIGN.md,
#      EXPERIMENTS.md, README.md, docs/*.md and the verify skill's SKILL.md
#      names a func Test... in some *_test.go of the repository.
#      A name written as Name* or passed to -run need only be a prefix of
#      one. ROADMAP.md and CHANGES.md (plans and history) are exempt.
#
# Column-0 matching is a deliberate approximation: declarations inside
# var/const/type blocks are indented and therefore exempt, which matches
# gofmt output and keeps the check cheap and false-positive-free.
set -eu
cd "$(dirname "$0")/.."

status=0

gofiles() {
    find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | sort
}

# Rule 1: package comments.
for dir in $(gofiles | xargs -n1 dirname | sort -u); do
    first=$(ls "$dir"/*.go | grep -v '_test\.go$' | head -1)
    pkg=$(awk '/^package /{print $2; exit}' "$first")
    [ "$pkg" = "main" ] && continue
    found=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        if grep -q "^// Package $pkg " "$f"; then found=1; break; fi
    done
    if [ "$found" = 0 ]; then
        echo "doccheck: $dir: package $pkg has no '// Package $pkg ...' comment"
        status=1
    fi
done

# Rule 2: doc comments on exported top-level declarations.
for f in $(gofiles); do
    awk -v file="${f#./}" '
        /^func \(([a-zA-Z_][A-Za-z0-9_]* +)?\*?[A-Z][^)]*\) [A-Z]/ || /^func [A-Z]/ ||
        /^type [A-Z]/ || /^var [A-Z]/ || /^const [A-Z]/ {
            if (prev !~ /^\/\// && prev !~ /\*\/[ \t]*$/) {
                printf "doccheck: %s:%d: exported declaration lacks a doc comment: %s\n", file, NR, $0
                bad = 1
            }
        }
        { prev = $0 }
        END { exit bad }
    ' "$f" || status=1
done

# Rule 3: no orphan docs.
if [ -d docs ]; then
    for f in docs/*.md; do
        [ -e "$f" ] || continue
        base=$(basename "$f")
        linked=0
        if grep -q "$base" README.md; then linked=1; fi
        for other in docs/*.md; do
            [ "$other" = "$f" ] && continue
            if grep -q "$base" "$other"; then linked=1; break; fi
        done
        if [ "$linked" = 0 ]; then
            echo "doccheck: $f: orphan doc — link it from README.md or another docs/ file"
            status=1
        fi
    done
fi

# Rule 4: cited tests exist.
tests=$(find . -name '*_test.go' ! -path './.git/*' -exec \
    awk '/^func Test[A-Za-z0-9_]*\(/ { sub(/^func /, ""); sub(/\(.*/, ""); print }' {} + | sort -u)
citing=$(ls DESIGN.md EXPERIMENTS.md README.md docs/*.md .[!.]*/skills/verify/SKILL.md 2>/dev/null || true)
if [ -n "$citing" ]; then
    printf '%s\n' "$tests" | awk '
        FNR == NR { if ($0 != "") defined[$0] = 1; next }
        FNR == 1 { runarg = 0 }
        {
            # Test names inside a -run argument (which may start on the
            # next line when -run ends one) are prefix citations.
            split("", prefix)
            for (i = 1; i <= NF; i++) {
                arg = ""
                if (runarg && i == 1) arg = $1
                if ($i == "-run" && i < NF) arg = $(i + 1)
                s = arg
                while (match(s, /Test[A-Z0-9_][A-Za-z0-9_]*/)) {
                    prefix[substr(s, RSTART, RLENGTH)] = 1
                    s = substr(s, RSTART + RLENGTH)
                }
            }
            runarg = ($NF == "-run")
            s = $0
            while (match(s, /(^|[^A-Za-z0-9_])Test[A-Z0-9_][A-Za-z0-9_]*/)) {
                name = substr(s, RSTART, RLENGTH)
                sub(/^[^T]/, "", name)
                rest = substr(s, RSTART + RLENGTH)
                s = rest
                if (name in defined) continue
                if (substr(rest, 1, 1) == "*" || name in prefix) {
                    ok = 0
                    for (d in defined) if (index(d, name) == 1) { ok = 1; break }
                    if (ok) continue
                }
                printf "doccheck: %s:%d: cites %s, which no *_test.go defines\n", FILENAME, FNR, name
                bad = 1
            }
        }
        END { exit bad }
    ' - $citing || status=1
fi

if [ "$status" != 0 ]; then
    echo "doccheck: FAIL — see the findings above" >&2
    exit 1
fi
echo "doccheck: OK"
