package sim

// Backend is the simulation surface the experiment registry drives: submit
// specs, collect per-run records, inspect cache metrics. Two
// implementations exist — the in-process *Runner, and serve.Pool, which
// sends every spec to a fleet of dkipd daemons (one daemon is a fleet of
// one) with content-key routing, retries, and local failover — so a
// figure's code cannot tell whether its sweeps simulate locally, on one
// remote machine, or across a cluster.
type Backend interface {
	// Run executes one spec (or returns the memoized result of an
	// identical earlier run).
	Run(RunSpec) (*Result, error)
	// RunAll executes specs concurrently, preserving order: results[i]
	// corresponds to specs[i].
	RunAll([]RunSpec) ([]*Result, error)
	// Results returns the unique resolved runs so far, sorted by content
	// key (see Runner.Results).
	Results() []*Result
	// Metrics snapshots the dedup/cache counters.
	Metrics() Metrics
}

// Runner is the canonical Backend.
var _ Backend = (*Runner)(nil)
