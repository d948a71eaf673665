// Package lockfacts computes whole-module lock fact summaries: which
// functions acquire and release which lock classes, in what order, across
// package boundaries. It is the interprocedural substrate under the
// lockorder and heldescape analyzers — the piece PR 2's intra-package call
// graphs could not provide, and the reason acquisition-order cycles between
// composed locks (clof climbing its hierarchy, a store shard holding its
// shard lock, a cr: wrapper taking its inner lock) are visible to
// clof-lint at all.
//
// # Lock classes
//
// Following lockdep, findings are per lock *class*, not per instance. The
// class of an acquisition site is resolved from the receiver expression of
// the Acquire/Lock call, most specific first:
//
//   - a package-level variable ("deadlock.MuA" in clof-lint's bad module),
//   - a struct field ("cr.Restricted.inner" — every Restricted shares the
//     class),
//   - otherwise the receiver's named type ("clof.Lock", "sync.Mutex").
//
// A class may declare its CLoF topology level with a directive comment on
// its type, package-level var, or struct field declaration:
//
//	//lock:level cache-group
//
// using the internal/topo level names (core, cache-group, numa, package,
// system). The lockorder analyzer checks declared levels against the CLoF
// climb order (low before high).
//
// # Summaries and propagation
//
// Every function body (and function literal) is walked with a branch-aware
// may-held lock set: acquire adds a class, release removes it, an if/switch
// merges the union of its non-returning branches, and a deferred release is
// held until function exit. Each walk records
//
//   - edges: "acquired class B while class A was held", with position;
//   - net effects: classes still held at return (a Lock() helper), and
//     releases of locks the function never acquired (an Unlock() helper);
//   - static calls, with the held set at the call site;
//   - plain struct-field reads and writes, with the held set (heldescape's
//     raw material).
//
// Call effects propagate interprocedurally: a call to g while holding A
// contributes edges from A to everything g transitively acquires (with the
// call chain retained for diagnostics), and g's net effects update the
// caller's held set. The walks repeat to a fixpoint, so summaries flow
// through arbitrarily deep, cross-package call chains; calls that are
// themselves lock-protocol operations (x.Acquire, mu.Lock) are treated as
// atomic acquisitions of their class rather than inlined.
package lockfacts

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/clof-go/clof/internal/analysis"
	"github.com/clof-go/clof/internal/analysis/loader"
	"github.com/clof-go/clof/internal/topo"
)

// Class is one lock class (see the package comment for resolution rules).
type Class struct {
	// Key is the globally unique class name, rooted at the full package
	// path ("github.com/.../internal/kvstore.DB.lock").
	Key string
	// Short is the human form used in diagnostics ("kvstore.DB.lock").
	Short string
	// Level is the declared CLoF topology level; valid iff HasLevel.
	Level    topo.Level
	HasLevel bool
}

// Edge is one "acquired To while holding From" fact.
type Edge struct {
	From, To *Class
	// Site is the position the inner acquisition became inevitable in the
	// holder's frame: the acquire call itself, or the static call that
	// transitively performs it. SitePos is the same position in token.Pos
	// form, resolvable against the loader's shared FileSet (for
	// Pass.Reportf).
	Site    token.Position
	SitePos token.Pos
	// PkgPath is the package containing Site.
	PkgPath string
	// Chain is the call chain from the function containing Site down to
	// the function performing the acquisition, for cross-package
	// diagnostics ("store.KVSession.Put -> store.Session.ExclusiveAt").
	Chain []string
}

// FieldAccess is one plain struct-field read or write with its lock
// context.
type FieldAccess struct {
	// Field is the accessed field object (shared across packages: the
	// loader type-checks the whole module with one importer).
	Field *types.Var
	// OwnerKey names the struct type declaring the field, in class-key
	// form ("<pkgpath>.DB") — "" when the owner is not a named type.
	OwnerKey string
	// OwnerShort is the diagnostic form of OwnerKey.
	OwnerShort string
	// Pos is the access position (TokPos its token.Pos form, for
	// Pass.Reportf); PkgPath the package containing it.
	Pos     token.Position
	TokPos  token.Pos
	PkgPath string
	// Held is the may-held class-key set at the access.
	Held []string
	// Unit is the enclosing function (or function literal).
	Unit *Unit
	// Write reports a store to the field (a compound assignment or x.f++
	// records both a read and a write access).
	Write bool
}

// Unit is one analyzed body: a declared function/method or a function
// literal.
type Unit struct {
	// Fn is the declared function, nil for a function literal.
	Fn *types.Func
	// Label is the diagnostic name ("store.KVSession.Put",
	// "store.func@kv.go:72").
	Label string
	pkg   *loader.Package
	body  *ast.BlockStmt
	pos   token.Pos
}

// World is the whole-module lock fact summary.
type World struct {
	// Classes indexes every lock class seen at an acquisition site (plus
	// classes that only declared a level), by Key.
	Classes map[string]*Class
	// Edges holds every held→acquired fact, sorted by site position.
	Edges []Edge
	// Accesses holds every plain struct-field access, sorted by position.
	Accesses []FieldAccess

	units      []*Unit
	underLock  map[*Unit]bool
	guardClass map[*Unit]map[string]bool
}

// UnderLock reports whether every static call path to u's function holds
// at least one lock — the "provably held" escape hatch heldescape grants
// helpers like kvstore's freezeLocked that are only ever invoked from
// inside a critical section. Units never called statically (exported API,
// goroutine bodies) are not under lock.
func (w *World) UnderLock(u *Unit) bool { return w.underLock[u] }

// GuardClasses returns the union of class keys held at u's static call
// sites (following under-lock callers), i.e. the locks that guard u's body
// when UnderLock(u) holds.
func (w *World) GuardClasses(u *Unit) []string {
	var out []string
	for k := range w.guardClass[u] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

const factKey = "lockfacts/world"

// For returns the world for the pass's whole-program context, computing it
// on first use and sharing it across all passes of the run.
func For(pass *analysis.Pass) *World {
	return pass.Prog.Fact(factKey, func() any { return Build(pass.Prog) }).(*World)
}

// Build computes the world over the program's packages and all their
// module-owned dependencies.
func Build(prog *analysis.Program) *World {
	b := &builder{
		world:    &World{Classes: map[string]*Class{}},
		levels:   map[string]topo.Level{},
		units:    map[*types.Func]*Unit{},
		litUnits: map[*ast.FuncLit]*Unit{},
		transAcq: map[*Unit]map[string][]string{},
		transNet: map[*Unit]map[string]bool{},
		transRel: map[*Unit]map[string]bool{},
		edges:    map[string]*Edge{},
		accesses: map[token.Pos]*FieldAccess{},
	}
	b.collectPackages(prog)
	b.scanDirectives()
	b.collectUnits()
	for iter := 0; iter < 50; iter++ {
		b.changed = false
		b.calls = map[*Unit][]callRec{}
		for _, u := range b.world.units {
			b.walk(u)
		}
		if !b.changed {
			break
		}
	}
	b.finish()
	return b.world
}

// callRec is one static call site: callee with the caller's held set.
type callRec struct {
	caller *Unit
	held   []string
}

type builder struct {
	world *World
	pkgs  []*loader.Package
	// levels holds //lock:level directives by class key, including classes
	// with no acquisition site yet.
	levels map[string]topo.Level

	units    map[*types.Func]*Unit
	litUnits map[*ast.FuncLit]*Unit

	// Fixpoint state: per unit, the transitively acquired classes (with a
	// witness call chain), net held-at-return classes, and net releases of
	// locks acquired by a caller.
	transAcq map[*Unit]map[string][]string
	transNet map[*Unit]map[string]bool
	transRel map[*Unit]map[string]bool
	calls    map[*Unit][]callRec
	edges    map[string]*Edge
	accesses map[token.Pos]*FieldAccess
	changed  bool
}

// collectPackages gathers prog.Pkgs plus every module-owned transitive
// dependency (reachable through loader.Package.Dep), sorted by path.
func (b *builder) collectPackages(prog *analysis.Program) {
	seen := map[string]*loader.Package{}
	var visit func(p *loader.Package)
	visit = func(p *loader.Package) {
		if p == nil || seen[p.PkgPath] != nil {
			return
		}
		seen[p.PkgPath] = p
		for _, imp := range p.Types.Imports() {
			if d, ok := p.Dep(imp.Path()); ok {
				visit(d)
			}
		}
	}
	for _, p := range prog.Pkgs {
		visit(p)
	}
	paths := make([]string, 0, len(seen))
	for path := range seen {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		b.pkgs = append(b.pkgs, seen[path])
	}
}

// scanDirectives collects //lock:level comments from type, package-var and
// struct-field declarations.
func (b *builder) scanDirectives() {
	for _, pkg := range b.pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						key := pkg.PkgPath + "." + s.Name.Name
						b.levelFrom(key, gd.Doc, s.Doc, s.Comment)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, name := range fld.Names {
									b.levelFrom(key+"."+name.Name, fld.Doc, fld.Comment)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							b.levelFrom(pkg.PkgPath+"."+name.Name, gd.Doc, s.Doc, s.Comment)
						}
					}
				}
			}
		}
	}
}

// levelFrom parses the first //lock:level directive in the comment groups.
func (b *builder) levelFrom(key string, groups ...*ast.CommentGroup) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			rest, ok := strings.CutPrefix(c.Text, "//lock:level ")
			if !ok {
				continue
			}
			if lvl, err := topo.ParseLevel(strings.TrimSpace(rest)); err == nil {
				b.levels[key] = lvl
			}
		}
	}
}

// collectUnits registers every declared function with a body, in
// deterministic (package, file, declaration) order. Function literals are
// registered lazily during walks.
func (b *builder) collectUnits() {
	for _, pkg := range b.pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				u := &Unit{Fn: fn, Label: funcLabel(pkg, fd, fn), pkg: pkg, body: fd.Body, pos: fd.Pos()}
				b.units[fn] = u
				b.world.units = append(b.world.units, u)
			}
		}
	}
}

// funcLabel renders "pkg.Recv.Name" / "pkg.Name".
func funcLabel(pkg *loader.Package, fd *ast.FuncDecl, fn *types.Func) string {
	name := pkg.Types.Name() + "."
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name += id.Name + "."
		}
	}
	return name + fn.Name()
}

// litUnit returns (creating on first sight) the unit for a function
// literal.
func (b *builder) litUnit(pkg *loader.Package, lit *ast.FuncLit) *Unit {
	if u, ok := b.litUnits[lit]; ok {
		return u
	}
	pos := pkg.Fset.Position(lit.Pos())
	u := &Unit{
		Label: fmt.Sprintf("%s.func@%s:%d", pkg.Types.Name(), shortFile(pos.Filename), pos.Line),
		pkg:   pkg, body: lit.Body, pos: lit.Pos(),
	}
	b.litUnits[lit] = u
	b.world.units = append(b.world.units, u)
	return u
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// class interns a class by key.
func (b *builder) class(key, short string) *Class {
	if c, ok := b.world.Classes[key]; ok {
		return c
	}
	c := &Class{Key: key, Short: short}
	b.world.Classes[key] = c
	return c
}

// finish attaches declared levels, sorts the outputs, and computes the
// under-lock closure.
func (b *builder) finish() {
	w := b.world
	for key, lvl := range b.levels {
		short := key
		if i := strings.LastIndex(key, "/"); i >= 0 {
			short = key[i+1:]
		}
		c := b.class(key, short)
		c.Level, c.HasLevel = lvl, true
	}
	for _, e := range b.edges {
		w.Edges = append(w.Edges, *e)
	}
	sort.Slice(w.Edges, func(i, j int) bool {
		a, c := w.Edges[i], w.Edges[j]
		if a.Site.Filename != c.Site.Filename {
			return a.Site.Filename < c.Site.Filename
		}
		if a.Site.Line != c.Site.Line {
			return a.Site.Line < c.Site.Line
		}
		if a.Site.Column != c.Site.Column {
			return a.Site.Column < c.Site.Column
		}
		if a.From.Key != c.From.Key {
			return a.From.Key < c.From.Key
		}
		return a.To.Key < c.To.Key
	})
	for _, a := range b.accesses {
		w.Accesses = append(w.Accesses, *a)
	}
	sort.Slice(w.Accesses, func(i, j int) bool {
		a, c := w.Accesses[i], w.Accesses[j]
		if a.Pos.Filename != c.Pos.Filename {
			return a.Pos.Filename < c.Pos.Filename
		}
		if a.Pos.Line != c.Pos.Line {
			return a.Pos.Line < c.Pos.Line
		}
		return a.Pos.Column < c.Pos.Column
	})

	// Under-lock closure: u is under lock iff it is statically called and
	// every call site either holds a lock or sits in an under-lock caller.
	// Iterated to a fixpoint (monotone: the set only grows).
	w.underLock = map[*Unit]bool{}
	w.guardClass = map[*Unit]map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, u := range w.units {
			if w.underLock[u] {
				continue
			}
			recs := b.calls[u]
			if len(recs) == 0 {
				continue
			}
			ok := true
			for _, r := range recs {
				if len(r.held) == 0 && !w.underLock[r.caller] {
					ok = false
					break
				}
			}
			if ok {
				w.underLock[u] = true
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, u := range w.units {
			if !w.underLock[u] {
				continue
			}
			gc := w.guardClass[u]
			if gc == nil {
				gc = map[string]bool{}
				w.guardClass[u] = gc
			}
			for _, r := range b.calls[u] {
				for _, h := range r.held {
					if !gc[h] {
						gc[h] = true
						changed = true
					}
				}
				for h := range w.guardClass[r.caller] {
					if !gc[h] {
						gc[h] = true
						changed = true
					}
				}
			}
		}
	}
}

// ---- per-unit walk ----

// walker carries one unit's traversal state.
type walker struct {
	b *builder
	u *Unit
	// held is the current may-held multiset of class keys.
	held map[string]int
	// exit accumulates the union of held sets at every return point.
	exit map[string]bool
	// deferredRel collects classes released by deferred calls (applied to
	// exit at the end).
	deferredRel []string
	// netRel collects releases of classes the unit never acquired.
	netRel map[string]bool
	// deferCtx is set while walking a deferred function literal's body, so
	// releases inside it count as deferred.
	deferCtx bool
}

func (b *builder) walk(u *Unit) {
	w := &walker{b: b, u: u, held: map[string]int{}, exit: map[string]bool{}, netRel: map[string]bool{}}
	terminated := w.stmts(u.body.List)
	if !terminated {
		w.ret()
	}
	// Deferred releases retire exit-held classes.
	exit := map[string]bool{}
	for k := range w.exit {
		exit[k] = true
	}
	for _, k := range w.deferredRel {
		delete(exit, k)
	}
	for k := range exit {
		b.setNet(b.transNet, u, k)
	}
	for k := range w.netRel {
		b.setNet(b.transRel, u, k)
	}
}

func (b *builder) setNet(m map[*Unit]map[string]bool, u *Unit, key string) {
	s := m[u]
	if s == nil {
		s = map[string]bool{}
		m[u] = s
	}
	if !s[key] {
		s[key] = true
		b.changed = true
	}
}

// ret records the current held set as a function exit.
func (w *walker) ret() {
	for k, n := range w.held {
		if n > 0 {
			w.exit[k] = true
		}
	}
}

func (w *walker) heldKeys() []string {
	var out []string
	for k, n := range w.held {
		if n > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (w *walker) clone() map[string]int {
	c := make(map[string]int, len(w.held))
	for k, v := range w.held {
		c[k] = v
	}
	return c
}

// merge unions other into held (may-held join).
func (w *walker) merge(other map[string]int) {
	for k, v := range other {
		if v > w.held[k] {
			w.held[k] = v
		}
	}
}

// stmts walks a statement list; reports whether the list definitely
// terminates (ends in return) with no fall-through.
func (w *walker) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if w.stmt(s) {
			return true
		}
	}
	return false
}

// stmt walks one statement; reports whether control definitely leaves the
// enclosing function here.
func (w *walker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
		for _, l := range s.Lhs {
			w.lhs(l, s.Tok != token.ASSIGN && s.Tok != token.DEFINE)
		}
	case *ast.IncDecStmt:
		w.lhs(s.X, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
		w.ret()
		return true
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		entry := w.clone()
		thenTerm := w.stmt(s.Body)
		thenExit := w.held
		w.held = entry
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			// Continuation sees only the else/fall-through exit.
		case elseTerm:
			w.held = thenExit
		default:
			w.merge(thenExit)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		entry := w.clone()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.merge(entry)
	case *ast.RangeStmt:
		w.expr(s.X)
		entry := w.clone()
		w.stmt(s.Body)
		w.merge(entry)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.branches(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.branches(s.Body)
	case *ast.SelectStmt:
		w.branches(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		return w.stmts(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		return w.stmts(s.Body)
	case *ast.DeferStmt:
		w.call(s.Call, true)
	case *ast.GoStmt:
		// The goroutine runs concurrently: its body is analyzed as its own
		// unit with an empty held set, and contributes nothing here.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.b.walkLit(w.u.pkg, lit)
		} else if callee := w.staticCallee(s.Call); callee != nil {
			w.b.calls[callee] = append(w.b.calls[callee], callRec{caller: w.u, held: nil})
		}
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	}
	return false
}

// branches walks each clause of a switch/select body on a clone of the
// held set, then unions the non-terminating exits.
func (w *walker) branches(body *ast.BlockStmt) {
	entry := w.clone()
	merged := w.clone()
	for _, c := range body.List {
		w.held = cloneHeld(entry)
		if !w.stmt(c) {
			for k, v := range w.held {
				if v > merged[k] {
					merged[k] = v
				}
			}
		}
	}
	w.held = merged
}

func cloneHeld(m map[string]int) map[string]int {
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// lhs records a field write (and for compound assignments the implied
// read) on assignment targets, then walks the base expression.
func (w *walker) lhs(e ast.Expr, alsoRead bool) {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if f, owner := w.fieldOf(sel); f != nil {
			w.access(f, owner, sel.Sel.Pos(), true)
			if alsoRead {
				w.access(f, owner, sel.Sel.Pos(), false)
			}
		}
		w.expr(sel.X)
		return
	}
	w.expr(e)
}

// expr walks an expression, recording calls and field reads.
func (w *walker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, false)
	case *ast.FuncLit:
		w.b.walkLit(w.u.pkg, e)
	case *ast.SelectorExpr:
		if f, owner := w.fieldOf(e); f != nil {
			w.access(f, owner, e.Sel.Pos(), false)
		}
		w.expr(e.X)
	case *ast.Ident, *ast.BasicLit:
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	}
}

// walkLit analyzes a function literal as its own unit with an empty held
// set (it is not, in general, executed at its definition point).
func (b *builder) walkLit(pkg *loader.Package, lit *ast.FuncLit) {
	b.walk(b.litUnit(pkg, lit))
}

// call handles a call expression: a lock-protocol operation updates the
// held set and the edge graph; a static call to a module function applies
// that function's summary.
func (w *walker) call(c *ast.CallExpr, deferred bool) {
	b := w.b
	if cls, acquire, ok := w.lockCall(c); ok {
		if acquire {
			w.addEdges(cls, c.Pos(), nil)
			if !deferred {
				w.held[cls.Key]++
			}
			b.setTransAcq(w.u, cls.Key, []string{w.u.Label})
		} else {
			if deferred || w.deferCtx {
				w.deferredRel = append(w.deferredRel, cls.Key)
			} else if w.held[cls.Key] > 0 {
				w.held[cls.Key]--
			} else {
				w.netRel[cls.Key] = true
			}
		}
		// Still walk the receiver chain for field reads (x.mu.Lock reads x.mu).
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
			w.expr(sel.X)
		}
		for _, a := range c.Args {
			w.expr(a)
		}
		return
	}

	if callee := w.staticCallee(c); callee != nil {
		b.calls[callee] = append(b.calls[callee], callRec{caller: w.u, held: w.heldKeys()})
		// Everything the callee transitively acquires is acquired while we
		// hold what we hold.
		acq := b.transAcq[callee]
		keys := make([]string, 0, len(acq))
		for k := range acq {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w.addEdges(b.world.Classes[k], c.Pos(), acq[k])
		}
		if !deferred {
			for k := range b.transNet[callee] {
				w.held[k]++
			}
			for k := range b.transRel[callee] {
				if w.held[k] > 0 {
					w.held[k]--
				} else {
					w.netRel[k] = true
				}
			}
			for _, k := range keys {
				b.setTransAcq(w.u, k, append([]string{w.u.Label}, acq[k]...))
			}
		} else {
			for k := range b.transRel[callee] {
				w.deferredRel = append(w.deferredRel, k)
			}
		}
	} else if lit, ok := c.Fun.(*ast.FuncLit); ok {
		// An immediately invoked (or deferred) literal runs in this frame:
		// walk it inline, with deferred releases redirected.
		savedDefer := w.deferCtx
		if deferred {
			w.deferCtx = true
		}
		w.stmts(lit.Body.List)
		w.deferCtx = savedDefer
		for _, a := range c.Args {
			w.expr(a)
		}
		return
	}
	w.expr(c.Fun)
	for _, a := range c.Args {
		w.expr(a)
	}
}

// addEdges records held→to edges at site with the given callee chain.
func (w *walker) addEdges(to *Class, site token.Pos, calleeChain []string) {
	if to == nil {
		return
	}
	b := w.b
	pos := w.u.pkg.Fset.Position(site)
	for _, h := range w.heldKeys() {
		key := h + "\x00" + to.Key + "\x00" + pos.Filename + fmt.Sprintf(":%d:%d", pos.Line, pos.Column)
		if _, ok := b.edges[key]; ok {
			continue
		}
		chain := append([]string{w.u.Label}, calleeChain...)
		b.edges[key] = &Edge{
			From: b.world.Classes[h], To: to,
			Site: pos, SitePos: site, PkgPath: w.u.pkg.PkgPath, Chain: chain,
		}
		b.changed = true
	}
}

func (b *builder) setTransAcq(u *Unit, key string, chain []string) {
	s := b.transAcq[u]
	if s == nil {
		s = map[string][]string{}
		b.transAcq[u] = s
	}
	if _, ok := s[key]; !ok {
		if len(chain) > 8 {
			chain = chain[:8]
		}
		s[key] = chain
		b.changed = true
	}
}

// staticCallee resolves c to a module function with a body.
func (w *walker) staticCallee(c *ast.CallExpr) *Unit {
	var obj types.Object
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		obj = w.u.pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.u.pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return w.b.units[fn]
}

// ---- classification ----

// Lock-protocol method names are matched EXACTLY, not by prefix: the
// observability layer's Observer callbacks (AcquireStart, Acquired,
// Released) would otherwise classify as lock operations and paint phantom
// edges through every instrumented lock.
func isAcquireName(name string) bool {
	switch name {
	case "Acquire", "TryAcquire", "Lock", "TryLock", "RLock", "TryRLock":
		return true
	}
	return false
}

func isReleaseName(name string) bool {
	switch name {
	case "Release", "Unlock", "RUnlock":
		return true
	}
	return false
}

// lockCall classifies c as a lock-protocol method call and resolves the
// receiver's lock class.
func (w *walker) lockCall(c *ast.CallExpr) (cls *Class, acquire bool, ok bool) {
	sel, selOK := c.Fun.(*ast.SelectorExpr)
	if !selOK {
		return nil, false, false
	}
	fn, fnOK := w.u.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !fnOK {
		return nil, false, false
	}
	sig, sigOK := fn.Type().(*types.Signature)
	if !sigOK || sig.Recv() == nil {
		return nil, false, false
	}
	switch {
	case isAcquireName(fn.Name()):
		acquire = true
	case isReleaseName(fn.Name()):
	default:
		return nil, false, false
	}
	key, short := w.classOf(sel.X)
	if key == "" {
		return nil, false, false
	}
	return w.b.class(key, short), acquire, true
}

// classOf resolves the lock class of a receiver expression: package-level
// variable, struct field, then named type (see the package comment).
func (w *walker) classOf(e ast.Expr) (key, short string) {
	info := w.u.pkg.Info
	e = unwrap(e)
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), v.Pkg().Name() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if f, ok := s.Obj().(*types.Var); ok {
				if named := namedOf(s.Recv()); named != nil {
					obj := named.Obj()
					return obj.Pkg().Path() + "." + obj.Name() + "." + f.Name(),
						obj.Pkg().Name() + "." + obj.Name() + "." + f.Name()
				}
			}
		}
		// Qualified package-level var: otherpkg.Mu.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), v.Pkg().Name() + "." + v.Name()
		}
	}
	if tv, ok := info.Types[e]; ok {
		if named := namedOf(tv.Type); named != nil {
			obj := named.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name(), obj.Pkg().Name() + "." + obj.Name()
			}
			return obj.Name(), obj.Name()
		}
	}
	return "", ""
}

func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return e
		}
	}
}

// ---- field accesses ----

// fieldOf resolves sel to a plain struct field worth tracking: not a
// lockapi.Cell (those are only touched through Proc operations), not a
// sync/atomic value, not a lock. Returns the field and its owner class
// prefix.
func (w *walker) fieldOf(sel *ast.SelectorExpr) (*types.Var, [2]string) {
	info := w.u.pkg.Info
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, [2]string{}
	}
	f, ok := s.Obj().(*types.Var)
	if !ok || excludedFieldType(f.Type()) {
		return nil, [2]string{}
	}
	named := namedOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return nil, [2]string{}
	}
	obj := named.Obj()
	return f, [2]string{obj.Pkg().Path() + "." + obj.Name(), obj.Pkg().Name() + "." + obj.Name()}
}

// excludedFieldType reports field types that carry their own
// synchronization (or are locks themselves) and are therefore outside
// heldescape's plain-field discipline.
func excludedFieldType(t types.Type) bool {
	if analysis.HasCell(t) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return analysis.IsLockapiPackage(obj.Pkg())
}

// access records one field access with the current held set.
func (w *walker) access(f *types.Var, owner [2]string, pos token.Pos, write bool) {
	b := w.b
	// Writes and reads at the same position (compound assignment) are
	// distinguished in the key.
	mapKey := pos
	if write {
		mapKey = -pos
	}
	a := b.accesses[mapKey]
	if a == nil {
		p := w.u.pkg.Fset.Position(pos)
		a = &FieldAccess{
			Field: f, OwnerKey: owner[0], OwnerShort: owner[1],
			Pos: p, TokPos: pos, PkgPath: w.u.pkg.PkgPath, Unit: w.u, Write: write,
		}
		b.accesses[mapKey] = a
	}
	// Union the held set across fixpoint iterations.
	for _, h := range w.heldKeys() {
		found := false
		for _, have := range a.Held {
			if have == h {
				found = true
				break
			}
		}
		if !found {
			a.Held = append(a.Held, h)
			sort.Strings(a.Held)
		}
	}
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	return nil
}
