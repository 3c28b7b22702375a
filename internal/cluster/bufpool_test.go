package cluster

import "testing"

// TestBufPoolDropsBuffersItCannotHandBack: a buffer whose capacity is
// not a class size — the shape of every TCP receive payload — could
// never serve a get of the length it arrived with (get looks one class
// up from where put would have to file it), so put must not hold it.
// The pool used to keep up to 256 of them per class.
func TestBufPoolDropsBuffersItCannotHandBack(t *testing.T) {
	const n = 3 << 16 // 196 608: between the 128 KiB and 256 KiB classes
	const ceiling = 1 << 18
	p := newBufPool()
	for i := 0; i < 1000; i++ {
		p.put(make([]byte, n))
		if _, bytes := p.retained(); bytes > ceiling {
			t.Fatalf("after %d foreign buffers of %d bytes the pool retains %d bytes, ceiling %d", i+1, n, bytes, ceiling)
		}
	}
	bufsBefore, bytesBefore := p.retained()
	b, _ := p.get(n)
	if len(b) != n || cap(b) != 1<<18 {
		t.Fatalf("get(%d) returned len %d cap %d", n, len(b), cap(b))
	}
	if bufs, bytes := p.retained(); bufs > bufsBefore || bytes > bytesBefore {
		t.Fatalf("get grew the retained set: %d bufs / %d bytes -> %d / %d", bufsBefore, bytesBefore, bufs, bytes)
	}
	// The buffer get handed out does round-trip.
	p.put(b)
	if b2, missed := p.get(n); missed || &b2[0] != &b[0] {
		t.Fatalf("a pooled buffer was not handed back (missed=%v)", missed)
	}
}

// TestBufPoolBoundsEachClassByBytes: a burst of large pooled buffers
// leaves at most maxClassBytes behind in their class, whatever their
// number; small classes are still bounded by count.
func TestBufPoolBoundsEachClassByBytes(t *testing.T) {
	p := newBufPool()
	const big = 4 << 20
	for i := 0; i < 40; i++ {
		p.put(make([]byte, big))
	}
	if bufs, bytes := p.retained(); bytes > maxClassBytes || bufs != maxClassBytes/big {
		t.Fatalf("40 released 4 MiB buffers: pool retains %d buffers, %d bytes; want %d buffers, at most %d bytes", bufs, bytes, maxClassBytes/big, maxClassBytes)
	}
	p = newBufPool()
	for i := 0; i < 2*maxFree; i++ {
		p.put(make([]byte, 64))
	}
	if bufs, _ := p.retained(); bufs != maxFree {
		t.Fatalf("%d released 64-byte buffers: pool retains %d, want %d", 2*maxFree, bufs, maxFree)
	}
}
