package mcheck

// Partial-order reduction (Config.POR): dynamic partial-order reduction in
// the style of Flanagan & Godefroid (POPL 2005) with sleep sets, over the
// announce-before-execute executor.
//
// Two transitions are treated as dependent when they belong to the same
// thread, both apply monitor effects (critical-section or active fairness
// bookkeeping), or touch a common cell with at least one write; everything
// else commutes — independent transitions neither enable nor disable each
// other (awaits watch cell versions, which only writes advance, and an
// await's footprint names the watched cell) and lead to the same state in
// either order. The relation is a conservative superset of true dependence
// (a failed CAS is announced as a write; a drain names every buffered
// entry), which costs reduction but never soundness.
//
// The explorer reaches its nodes through the live instance, statelessly
// like the exhaustive search, but maintains, per stack node, the F&G
// backtrack set (seeded with one enabled transition, grown by conflict
// analysis at every descendant state) and a sleep set (transitions already
// explored by a sibling whose independence from the taken edge proves
// re-exploring them here redundant). Per-event happens-before sets are
// bitsets over schedule indices: hb(j) is the union of hb(i) for every
// earlier dependent i, plus j itself. A pending transition's causal past is
// anchored at its thread's latest executed operation (or the issuing store,
// for a buffered flush); the conflict scan walks the trace backwards for
// the latest dependent event outside that past and marks the pending
// transition's process for back-tracking at the state before it.
//
// State-fingerprint deduplication is incompatible with DPOR — pruning a
// revisited state would hide the conflicts that seed ancestor backtrack
// sets — so the reduced search never prunes; fingerprints are still
// collected to report Result.States (distinct states visited) and enforce
// MaxStates. Verdicts are those of the exhaustive search (the equivalence
// matrix in por_test.go pins this across the lock-baseline suite);
// witnesses may differ, as any trace of the violating Mazurkiewicz class
// may be reported. The stale-load relaxation (Config.StaleLoads) forks
// transitions mid-execution, which the footprint protocol does not cover:
// Check falls back to exhaustive exploration for it.

// ckey is the stable identity of a schedulable transition's process: a
// thread (flush == 0) or one buffered store's flush pseudo-process (the
// issuing operation's index + 1). Buffer positions shift as entries commit;
// opIdx does not.
type ckey struct {
	tid   int
	flush uint64
	stale bool
}

// pendInfo is one pending transition at a state: its process identity, its
// (conservative) footprint, and the schedule index anchoring its causal
// past (-1 when it has none).
type pendInfo struct {
	key   ckey
	foot  footprint
	hbRef int
}

// dependent reports whether two transitions may fail to commute (see the
// package comment above for the relation).
func dependent(a, b *footprint) bool {
	if a.tid == b.tid {
		// Same thread: operations are program-ordered, flushes
		// buffer-ordered, and draining operations absorb pending flushes.
		// Treating a thread's own flushes as commuting with its
		// non-conflicting operations is a valid refinement but a practical
		// pessimization: flush pendings then scan past their own thread's
		// operations to old cross-thread conflicts, at nodes where the
		// flush pseudo-process did not exist yet, hitting the all-enabled
		// fallback — measured 20x+ worse on the TTAS/WMM baseline.
		return true
	}
	if a.mon && b.mon {
		return true
	}
	for _, ca := range a.cells {
		for _, cb := range b.cells {
			if ca.idx == cb.idx && (ca.write || cb.write) {
				return true
			}
		}
	}
	return false
}

// copyFoot detaches a footprint from the executor's reusable backing.
func copyFoot(f footprint) footprint {
	f.cells = append([]fpCell(nil), f.cells...)
	return f
}

// traceEv is one executed transition of the current schedule prefix.
type traceEv struct {
	foot footprint
	hb   []uint64 // bitset over schedule indices, including the event's own
}

// porNode is the explorer's per-state bookkeeping.
type porNode struct {
	enabled []Choice
	keys    []ckey
	// The backtrack set, insertion-ordered for deterministic exploration.
	bkeys   []ckey
	bchoice []Choice
	inB     map[ckey]bool
	done    map[ckey]bool
	sleep   map[ckey]footprint
	expl    map[ckey]footprint
	// pendFoot maps each process with a pending transition to its footprint
	// (the foot of the edge taken when that process is scheduled here).
	pendFoot map[ckey]footprint
}

func (n *porNode) addBacktrack(k ckey, ch Choice) {
	if n.inB[k] {
		return
	}
	n.inB[k] = true
	n.bkeys = append(n.bkeys, k)
	n.bchoice = append(n.bchoice, ch)
}

// porChecker is the reduced-search driver.
type porChecker struct {
	*checker
	prefix []Choice
	stack  []*porNode
	trace  []traceEv
}

// porView lists, at the state ex holds, the process key of each enabled
// transition and every pending transition with its footprint and causal
// anchor. Footprints are copied: the instance reuses their backing.
func porView(ex *exec, enabled []Choice) (keys []ckey, pendings []pendInfo) {
	for _, ch := range enabled {
		if ch.Flush >= 0 {
			e := ex.threads[ch.TID].buffer[ch.Flush]
			keys = append(keys, ckey{tid: ch.TID, flush: e.opIdx + 1})
		} else {
			keys = append(keys, ckey{tid: ch.TID, stale: ch.Stale})
		}
	}
	for t, p := range ex.threads {
		if !p.done {
			pendings = append(pendings, pendInfo{
				key:   ckey{tid: t},
				foot:  copyFoot(p.pend.foot),
				hbRef: ex.lastStepIdx[t],
			})
		}
		for i := range p.buffer {
			e := &p.buffer[i]
			pendings = append(pendings, pendInfo{
				key:   ckey{tid: t, flush: e.opIdx + 1},
				foot:  footprint{tid: t, isFlush: true, cells: []fpCell{{e.cell.idx, true}}},
				hbRef: e.issueIdx,
			})
		}
	}
	return keys, pendings
}

func bitGet(b []uint64, i int) bool { return i/64 < len(b) && b[i/64]&(1<<uint(i%64)) != 0 }

func bitSet(b []uint64, i int) { b[i/64] |= 1 << uint(i%64) }

func bitOr(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// explore moves the live instance to the current prefix, extends the
// trace, computes backtrack points for every pending transition, and
// recursively explores the backtrack set (which descendants may still
// grow). sleepCand is the parent's sleep set plus previously explored
// siblings; it is filtered against the just-executed edge before becoming
// this node's sleep set.
func (c *porChecker) explore(sleepCand map[ckey]footprint) {
	if c.violation != "" || c.truncated {
		return
	}
	ex, enabled := c.visit(c.prefix)
	if ex == nil {
		return
	}
	sleep := make(map[ckey]footprint)
	if n := len(c.prefix); n > 0 {
		ev := traceEv{foot: copyFoot(ex.lastFoot), hb: make([]uint64, (n+63)/64)}
		bitSet(ev.hb, n-1)
		for i := 0; i < n-1; i++ {
			f := c.trace[i].foot
			if dependent(&f, &ev.foot) {
				bitOr(ev.hb, c.trace[i].hb)
			}
		}
		c.trace = append(c.trace, ev)
		defer func() { c.trace = c.trace[:len(c.trace)-1] }()
		for k, f := range sleepCand {
			f := f
			if !dependent(&f, &ev.foot) {
				sleep[k] = f
			}
		}
	}
	c.record(ex.fingerprint()) // counted for States; DPOR never prunes
	if c.truncated {
		return
	}
	if len(c.prefix) >= c.cfg.MaxDepth {
		c.fail("depth limit exceeded (potential non-termination)", c.prefix)
		return
	}
	keys, pendings := porView(ex, enabled)
	for i := range pendings {
		c.addBacktracks(&pendings[i])
	}
	node := &porNode{
		enabled:  enabled,
		keys:     keys,
		inB:      make(map[ckey]bool),
		done:     make(map[ckey]bool),
		sleep:    sleep,
		expl:     make(map[ckey]footprint),
		pendFoot: make(map[ckey]footprint, len(pendings)),
	}
	for _, pi := range pendings {
		node.pendFoot[pi.key] = pi.foot
	}
	c.stack = append(c.stack, node)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()
	// Seed with the first enabled transition not covered by the sleep set;
	// if the sleep set covers everything, a sibling already explored an
	// equivalent linearization of every continuation from here.
	seeded := false
	for i, k := range node.keys {
		if _, slp := sleep[k]; !slp {
			node.addBacktrack(k, node.enabled[i])
			seeded = true
			break
		}
	}
	if !seeded {
		return
	}
	for i := 0; i < len(node.bkeys); i++ { // grows as descendants add backtracks
		k, ch := node.bkeys[i], node.bchoice[i]
		if node.done[k] {
			continue
		}
		node.done[k] = true
		if _, slp := node.sleep[k]; slp {
			continue
		}
		cand := make(map[ckey]footprint, len(node.sleep)+len(node.expl))
		for k2, f2 := range node.sleep {
			cand[k2] = f2
		}
		for k2, f2 := range node.expl {
			cand[k2] = f2
		}
		c.prefix = append(c.prefix, ch)
		c.explore(cand)
		c.prefix = c.prefix[:len(c.prefix)-1]
		if c.violation != "" || c.truncated {
			return
		}
		// The edge's footprint: for a thread step, the pending footprint of
		// that thread here; for a flush, its single committed cell.
		ek := ckey{tid: k.tid, flush: k.flush}
		if f, ok := node.pendFoot[ek]; ok {
			node.expl[k] = f
		}
	}
}

// addBacktracks implements the F&G conflict scan for one pending
// transition: find the latest executed event dependent with it and outside
// its causal past, and mark its process for exploration at the state before
// that event (falling back to every enabled transition there when the
// process had nothing enabled at that state).
func (c *porChecker) addBacktracks(pi *pendInfo) {
	var hbPast []uint64
	if pi.hbRef >= 0 {
		hbPast = c.trace[pi.hbRef].hb
	}
	for i := len(c.trace) - 1; i >= 0; i-- {
		f := c.trace[i].foot
		if !dependent(&f, &pi.foot) {
			continue
		}
		if bitGet(hbPast, i) {
			continue
		}
		nd := c.stack[i]
		found := false
		for j, k := range nd.keys {
			if k.tid == pi.key.tid && k.flush == pi.key.flush && !k.stale {
				nd.addBacktrack(k, nd.enabled[j])
				found = true
			}
		}
		if !found {
			for j := range nd.keys {
				nd.addBacktrack(nd.keys[j], nd.enabled[j])
			}
		}
		return
	}
}
