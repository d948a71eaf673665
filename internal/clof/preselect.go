package clof

import (
	"sort"

	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// LevelScorer rates a basic lock at one hierarchy level — typically the
// Fig. 3 experiment: the lock's throughput inside a single cohort of that
// level at maximum contention.
type LevelScorer func(t locks.Type, lvl topo.Level) float64

// Preselect implements the paper's footnote 5: before the exhaustive N^M
// sweep, keep only the topK best-scoring basic locks per level, shrinking
// the scripted benchmark's search space from N^M to at most topK^M
// compositions. With topK >= len(basics) it degenerates to Generate.
func Preselect(basics []locks.Type, h *topo.Hierarchy, topK int, score LevelScorer) []Composition {
	if topK <= 0 {
		topK = 1
	}
	candidates := make([][]locks.Type, len(h.Levels))
	for i, lvl := range h.Levels {
		ranked := append([]locks.Type(nil), basics...)
		sort.SliceStable(ranked, func(a, b int) bool {
			return score(ranked[a], lvl) > score(ranked[b], lvl)
		})
		k := topK
		if k > len(ranked) {
			k = len(ranked)
		}
		candidates[i] = ranked[:k]
	}
	return GenerateFrom(candidates)
}
