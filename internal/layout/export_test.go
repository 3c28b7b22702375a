package layout

// RowNNZ returns the number of pending entries in one row of a mode,
// walking the per-row chain an event-path row refresh walks.
func (d *Delta) RowNNZ(mode int, row int32) int {
	c := 0
	for e := d.head[mode][row]; e >= 0; e = d.next[mode][e] {
		c++
	}
	return c
}
