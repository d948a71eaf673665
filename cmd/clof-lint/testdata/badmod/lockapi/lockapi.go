// Package lockapi is a miniature stand-in for the repository's lockapi,
// just large enough for the analyzers to recognize (they match the
// package-path suffix "lockapi", the Cell type, and Proc methods whose
// final parameter is an Order). Keeping the fixture module self-contained
// makes the clof-lint e2e test independent of the real repository layout.
package lockapi

// Order is a memory-ordering constraint.
type Order int

// Ordering constants, weakest first.
const (
	Relaxed Order = iota
	Acquire
	Release
	AcqRel
	SeqCst
)

// Cell is a 64-bit atomic slot.
type Cell struct{ v uint64 }

// Proc is the per-thread handle lock code performs memory accesses through.
type Proc interface {
	Load(c *Cell, o Order) uint64
	Store(c *Cell, v uint64, o Order)
	CAS(c *Cell, old, new uint64, o Order) bool
	Add(c *Cell, delta uint64, o Order) uint64
	Swap(c *Cell, v uint64, o Order) uint64
	Fence(o Order)
	Spin()
	ID() int
}
