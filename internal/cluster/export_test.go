package cluster

// PoolRetained reports what the node's buffer pool holds on its free
// lists right now, for the external tests that drive the transport
// through other packages.
func (n *TCPNode) PoolRetained() (bufs int, bytes int64) { return n.pool.retained() }
