package inorder

import "dkip/internal/ooo"

// Processor is one in-order core instance: the out-of-order model built
// with a single in-order issue queue (ooo.NewUnified), whose engine methods
// it keeps. Construct with New; Run simulates a workload.
type Processor ooo.Processor

// New builds a processor. It panics on invalid configuration.
func New(cfg Config) *Processor {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return (*Processor)(ooo.NewUnified(cfg.oooConfig()))
}
