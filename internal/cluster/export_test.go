package cluster

// PoolRetained reports what the node's buffer pool holds on its free
// lists right now, for the external tests that drive the transport
// through other packages.
func (n *TCPNode) PoolRetained() (bufs int, bytes int64) { return n.pool.retained() }

// SetFaultPlan installs a deterministic fault schedule applied to every
// send. Must be called before Run.
func (n *TCPNode) SetFaultPlan(p *FaultPlan) { n.fault = p }

// stats reports lifetime get and miss counts (tests assert steady-state
// misses stay flat).
func (p *bufPool) stats() (gets, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.misses
}

// retained reports what the free lists hold right now (tests assert it
// stays bounded and flat).
func (p *bufPool) retained() (bufs int, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c, s := range p.classes {
		bufs += len(s)
		bytes += int64(len(s)) << c
	}
	return bufs, bytes
}
