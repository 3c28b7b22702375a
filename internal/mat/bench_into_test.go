package mat

import (
	"testing"

	"dismastd/internal/xrand"
)

// In-place kernel benchmarks; BenchmarkGram in mat_test.go is the
// allocating counterpart of BenchmarkGramInto, so -benchmem shows the
// allocation story side by side.

func BenchmarkGramInto(b *testing.B) {
	a := RandomGaussian(10000, 10, xrand.New(1))
	dst := New(10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramInto(dst, a)
	}
}

func BenchmarkMulInto(b *testing.B) {
	src := xrand.New(3)
	a := RandomGaussian(1000, 10, src)
	m := RandomGaussian(10, 10, src)
	dst := New(1000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, m)
	}
}

func BenchmarkHadamardAllInto(b *testing.B) {
	src := xrand.New(4)
	ms := make([]*Dense, 4)
	for i := range ms {
		ms[i] = RandomGaussian(10, 10, src)
	}
	dst := New(10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HadamardAllInto(dst, ms...)
	}
}

func BenchmarkSolveRightRidgeInto(b *testing.B) {
	src := xrand.New(2)
	d := Gram(RandomGaussian(100, 10, src))
	m := RandomGaussian(10000, 10, src)
	dst := New(10000, 10)
	ws := NewWorkspace()
	SolveRightRidgeInto(dst, m, d, ws) // warm the workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveRightRidgeInto(dst, m, d, ws)
	}
}
