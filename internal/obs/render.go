package obs

import (
	"fmt"

	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/memsim"
)

// Namer assigns stable display names ("cell0", "cell1", ...) to cells in
// first-observation order. Since the simulator is deterministic, the naming
// is reproducible across runs of the same scenario.
type Namer struct {
	names map[*lockapi.Cell]string
}

// NewNamer returns an empty namer.
func NewNamer() *Namer { return &Namer{names: map[*lockapi.Cell]string{}} }

// Name returns the cell's display name, assigning the next one on first
// sight; nil renders as "-".
func (n *Namer) Name(c *lockapi.Cell) string {
	if c == nil {
		return "-"
	}
	if s, ok := n.names[c]; ok {
		return s
	}
	s := fmt.Sprintf("cell%d", len(n.names))
	n.names[c] = s
	return s
}

// FormatEvent renders one trace event as the per-CPU timeline line used by
// clof-obs -events: virtual timestamp, CPU, operation, cell, value, cost.
func FormatEvent(ev memsim.TraceEvent, n *Namer) string {
	return fmt.Sprintf("%8dns cpu%-3d %-6s %-8s val=%-4d cost=%dns",
		ev.Time, ev.CPU, ev.Op, n.Name(ev.Cell), ev.Value, ev.Cost)
}
