package core

// SpreadCap exposes the rename/horizon spread bound to the external tests.
func (p *Processor) SpreadCap() int { return p.spreadCap }
