// Package layout is the kernel-representation layer between
// internal/tensor (COO) and internal/mttkrp: it compiles a snapshot
// region once into a mode-sorted structure a sweep kernel can walk
// with unit-stride loads, instead of chasing the COO arrays through an
// entry-order indirection every iteration.
//
// A compiled ModeLayout holds, per mode, the region's values and all
// coordinate arrays permuted into mode-sorted order (the value
// permutation) and the non-empty output rows with their position
// ranges. Compilation is paid once per region and amortised over every
// sweep of a snapshot; the structure never feeds floating-point order,
// so the compiled kernel reproduces the COO walk bit for bit (see the
// determinism note on ModeLayout.AccumulateGroups).
package layout

import "fmt"

// Kind selects a kernel representation for MTTKRP and row-wise sweeps.
// The zero value is Compiled, the layout every engine runs; COO is what
// tests and the benchmark's per-layer rows build as the oracle.
type Kind int

const (
	// Compiled walks a ModeLayout: permuted, mode-sorted copies of the
	// region compiled once per snapshot (the default).
	Compiled Kind = iota
	// COO walks the tensor's coordinate arrays through a row-grouped
	// entry-order indirection (internal/mttkrp.ModeView) — the oracle
	// the goldens hold the compiled layout to, bit for bit.
	COO
)

// String returns the kind's name, the spelling ParseKind reads.
func (k Kind) String() string {
	switch k {
	case Compiled:
		return "compiled"
	case COO:
		return "coo"
	}
	return fmt.Sprintf("layout.Kind(%d)", int(k))
}

// ParseKind parses a layout name. The empty string is the default,
// Compiled.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "compiled":
		return Compiled, nil
	case "coo":
		return COO, nil
	}
	return Compiled, fmt.Errorf("layout: unknown layout %q (want compiled or coo)", s)
}
