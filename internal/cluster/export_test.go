package cluster

// PoolRetained reports what the node's buffer pool holds on its free
// lists right now, for the external tests that drive the transport
// through other packages.
func (n *TCPNode) PoolRetained() (bufs int, bytes int64) { return n.pool.retained() }

// SetFaultPlan installs a deterministic fault schedule applied to every
// send. Must be called before Run.
func (n *TCPNode) SetFaultPlan(p *FaultPlan) { n.fault = p }
