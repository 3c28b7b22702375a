package obs

import "testing"

func TestRuntimeSamplerSetsGauges(t *testing.T) {
	reg := newRegistry()
	s := NewRuntimeSampler(reg)
	s.Sample()
	snap := reg.Snapshot()
	if snap.Gauges["runtime.heap.bytes"] <= 0 {
		t.Fatalf("heap bytes gauge = %v, want > 0", snap.Gauges["runtime.heap.bytes"])
	}
	if snap.Gauges["runtime.goroutines"] < 1 {
		t.Fatalf("goroutines gauge = %v, want >= 1", snap.Gauges["runtime.goroutines"])
	}
}

func TestRuntimeSamplerNilSafe(t *testing.T) {
	var s *RuntimeSampler
	s.Sample() // must not panic
	if NewRuntimeSampler(nil) != nil {
		t.Fatal("NewRuntimeSampler(nil) should return nil")
	}
}

// TestRuntimeSamplerAllocFree: fence-time sampling must not feed the
// very allocator pressure it reports.
func TestRuntimeSamplerAllocFree(t *testing.T) {
	s := NewRuntimeSampler(newRegistry())
	s.Sample()
	if allocs := testing.AllocsPerRun(10, s.Sample); allocs != 0 {
		t.Errorf("Sample allocates %v times, want 0", allocs)
	}
}
