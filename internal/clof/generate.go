package clof

import "github.com/clof-go/clof/internal/locks"

// Generate enumerates every composition of the given basic locks over
// `levels` hierarchy levels — the paper's exhaustive N^M generation (§4.3):
// GenerateFrom with basics at every level. The order is deterministic: the
// last level (system) varies slowest, so compositions sharing a system lock
// are adjacent.
func Generate(basics []locks.Type, levels int) []Composition {
	if levels <= 0 {
		return nil
	}
	candidates := make([][]locks.Type, levels)
	for i := range candidates {
		candidates[i] = basics
	}
	return GenerateFrom(candidates)
}

// GenerateFrom enumerates compositions with an explicit candidate set per
// level (candidates[i] feeds level i); Generate is the case with the same
// candidates at every level.
func GenerateFrom(candidates [][]locks.Type) []Composition {
	if len(candidates) == 0 {
		return nil
	}
	total := 1
	for _, c := range candidates {
		if len(c) == 0 {
			return nil
		}
		total *= len(c)
	}
	out := make([]Composition, 0, total)
	idx := make([]int, len(candidates))
	for {
		comp := make(Composition, len(candidates))
		for i, j := range idx {
			comp[i] = candidates[i][j]
		}
		out = append(out, comp)
		// Odometer increment, lowest level fastest.
		k := 0
		for ; k < len(candidates); k++ {
			idx[k]++
			if idx[k] < len(candidates[k]) {
				break
			}
			idx[k] = 0
		}
		if k == len(candidates) {
			return out
		}
	}
}
