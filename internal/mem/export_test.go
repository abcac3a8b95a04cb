package mem

// FillsDirectly exposes Warm's choice between filling and walking.
func (h *Hierarchy) FillsDirectly(ranges [][2]uint64) bool { return h.fillsDirectly(ranges) }
