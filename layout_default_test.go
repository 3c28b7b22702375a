package dismastd

import (
	"testing"

	"dismastd/internal/layout"
	"dismastd/internal/mttkrp"
	"dismastd/internal/tensor"
)

// TestZeroValueOptionsBuildCompiledKernels pins what is left of the
// layout choice. The engines hand the kernel constructors
// layout.Compiled — the zero Kind (internal/layout's
// TestDefaultIsCompiled) — so what they build is a *layout.ModeLayout;
// and Options.Layout, the one field still naming a layout, is validated
// and ignored: every known spelling runs the same engine, an unknown one
// is still an error.
func TestZeroValueOptionsBuildCompiledKernels(t *testing.T) {
	b := tensor.NewBuilder([]int{3, 4, 2})
	b.Append([]int{0, 1, 0}, 1)
	b.Append([]int{2, 3, 1}, 2)
	b.Append([]int{1, 0, 1}, 3)
	x := b.Build()
	entries := []int32{0, 2}

	var kind layout.Kind
	for ctor, k := range map[string]mttkrp.Kernel{
		"NewKernel":   mttkrp.NewKernel(x, 0, kind),
		"NewKernelOf": mttkrp.NewKernelOf(x, 0, entries, kind),
	} {
		if _, ok := k.(*layout.ModeLayout); !ok {
			t.Errorf("zero-value kind: %s built %T, want *layout.ModeLayout", ctor, k)
		}
	}

	var want []*Dense
	for _, name := range []string{"", "compiled", "coo"} {
		s := NewStream(Options{Rank: 2, MaxIters: 3, Seed: 5, Layout: name})
		if _, err := s.Ingest(x); err != nil {
			t.Fatalf("Layout %q: %v", name, err)
		}
		got := s.Factors()
		if want == nil {
			want = got
			continue
		}
		for m := range want {
			for i, v := range want[m].Data {
				if got[m].Data[i] != v {
					t.Fatalf("Layout %q: mode %d differs from the default's factors", name, m)
				}
			}
		}
	}
	if _, err := NewStream(Options{Rank: 2, Layout: "csf"}).Ingest(x); err == nil {
		t.Error(`Layout "csf" accepted, want an error`)
	}
}
