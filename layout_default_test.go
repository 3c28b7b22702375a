package dismastd

import (
	"testing"

	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/layout"
	"dismastd/internal/mttkrp"
	"dismastd/internal/tensor"
)

// TestZeroValueOptionsBuildCompiledKernels pins the zero-value rule
// (layout.Kind(0) == layout.Compiled, see internal/layout's
// TestDefaultIsCompiled) where it matters: an options struct that never
// mentions a layout — public or internal — hands the kernel
// constructors the compiled kind, so what they build is a
// *layout.ModeLayout. The engines pass Options.Layout to
// mttkrp.NewKernel / NewKernelOf / CachedKernelOf unchanged.
func TestZeroValueOptionsBuildCompiledKernels(t *testing.T) {
	completion, err := CompletionOptions{}.internal()
	if err != nil {
		t.Fatal(err)
	}
	b := tensor.NewBuilder([]int{3, 4, 2})
	b.Append([]int{0, 1, 0}, 1)
	b.Append([]int{2, 3, 1}, 2)
	b.Append([]int{1, 0, 1}, 3)
	x := b.Build()
	entries := []int32{0, 2}

	for _, tc := range []struct {
		name string
		kind layout.Kind
	}{
		{"dismastd.Options", Options{}.layoutKind()},
		{"dismastd.CompletionOptions", completion.Layout},
		{"core.Options", core.Options{}.Layout},
		{"dtd.Options", dtd.Options{}.Layout},
	} {
		for ctor, k := range map[string]mttkrp.Kernel{
			"NewKernel":      mttkrp.NewKernel(x, 0, tc.kind),
			"NewKernelOf":    mttkrp.NewKernelOf(x, 0, entries, tc.kind),
			"CachedKernelOf": mttkrp.CachedKernelOf(&layout.Cache{}, x, 0, entries, tc.kind),
		} {
			if _, ok := k.(*layout.ModeLayout); !ok {
				t.Errorf("zero-value %s: %s built %T, want *layout.ModeLayout", tc.name, ctor, k)
			}
		}
	}
}
