package inorder

import "dkip/internal/ooo"

// Processor is one in-order core instance: the out-of-order model built
// with a single in-order issue queue (ooo.NewUnified), whose engine methods
// it keeps. Construct with New; Run simulates a workload.
type Processor ooo.Processor

// New builds a processor. It panics on invalid configuration.
func New(cfg Config) *Processor {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// The in-order flag is the whole microarchitecture: the queue only ever
	// offers its oldest instruction, so an unready head blocks issue
	// entirely, and the ROB is the scoreboarded window retired in order.
	return (*Processor)(ooo.NewUnified(ooo.Config{
		Name:            cfg.Name,
		FetchWidth:      cfg.FetchWidth,
		RenameWidth:     cfg.RenameWidth,
		IssueWidth:      cfg.IssueWidth,
		CommitWidth:     cfg.CommitWidth,
		FrontEndDepth:   cfg.FrontEndDepth,
		RedirectPenalty: cfg.RedirectPenalty,
		ROBSize:         cfg.Window,
		IQSize:          cfg.QueueSize,
		InOrder:         true,
		LSQSize:         cfg.LSQSize,
		MemPorts:        cfg.MemPorts,
		MSHRs:           cfg.MSHRs,
		FU:              cfg.FU,
		Mem:             cfg.Mem,
		NewPredictor:    cfg.NewPredictor,
	}))
}
