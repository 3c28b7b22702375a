package tensor

import "fmt"

// Sequence is a multi-aspect streaming tensor sequence (Definition 4):
// a full tensor plus a monotone list of per-step mode sizes. Snapshot i
// is the prefix sub-tensor bounded by Steps[i], so every snapshot is a
// sub-tensor of the next, growing in potentially every mode.
type Sequence struct {
	Full  *Tensor
	Steps [][]int // Steps[i][m] is the mode-m size of snapshot i
}

// NewSequence validates that steps are monotone non-decreasing per mode
// and bounded by the full tensor's dims, and returns the sequence.
func NewSequence(full *Tensor, steps [][]int) (*Sequence, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("tensor: sequence needs at least one step")
	}
	n := full.Order()
	prev := make([]int, n)
	for i, st := range steps {
		if len(st) != n {
			return nil, fmt.Errorf("tensor: step %d has %d dims, tensor has order %d", i, len(st), n)
		}
		for m, d := range st {
			if d < prev[m] {
				return nil, fmt.Errorf("tensor: step %d shrinks mode %d (%d < %d)", i, m, d, prev[m])
			}
			if d > full.Dims[m] {
				return nil, fmt.Errorf("tensor: step %d exceeds mode %d size (%d > %d)", i, m, d, full.Dims[m])
			}
		}
		prev = st
	}
	return &Sequence{Full: full, Steps: steps}, nil
}

// Len returns the number of snapshots.
func (s *Sequence) Len() int { return len(s.Steps) }

// Dims returns the mode sizes of snapshot i.
func (s *Sequence) Dims(i int) []int { return s.Steps[i] }

// Snapshot materialises snapshot i as its own tensor.
func (s *Sequence) Snapshot(i int) *Tensor { return s.Full.Prefix(s.Steps[i]) }
