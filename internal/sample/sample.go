package sample

import (
	"math"

	"dkip/internal/ckpt"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/trace"
)

// Engine is the processor surface the sampling driver needs.
// core.Processor (D-KIP) and ooo.Processor (R10K/KILO) implement it, and so
// does inorder.Processor, an ooo.Processor with one in-order issue queue.
type Engine interface {
	// Hierarchy exposes the cache hierarchy for initial range warming.
	Hierarchy() *mem.Hierarchy
	// Run simulates in detail: warmup instructions to fill the pipeline,
	// then measure instructions with statistics.
	Run(g trace.Generator, warmup, measure uint64) *pipeline.Stats
	// WarmFunctional fast-forwards architectural state by n instructions.
	WarmFunctional(g trace.Generator, n uint64)
	// CaptureArch snapshots architectural state at stream position pos.
	CaptureArch(bench string, pos uint64) (*ckpt.Checkpoint, error)
	// RestoreArch loads a snapshot; the generator cursor is the caller's.
	RestoreArch(c *ckpt.Checkpoint) error
	// Lookahead returns how many instructions past warmup+measure one Run
	// call can pull from its generator; Run panics if it pulls more. The
	// run's tape keeps a detailed interval's read-ahead up to this bound.
	Lookahead() uint64
}

// Config drives one sampled run.
type Config struct {
	// Bench names the workload, stamped into captured checkpoints.
	Bench string
	// NewEngine builds a fresh processor; called for the functional cursor
	// (again after a checkpoint hit drops it) and once per detailed
	// interval.
	NewEngine func() Engine
	// NewGen builds a fresh generator positioned at stream start. Run calls
	// it once: that generator produces every instruction the run reads.
	// When it also has SaveState and LoadState, as workload.Benchmark
	// does, checkpoints carry its state and hits resume the stream from it.
	NewGen func() trace.Generator
	// WarmRanges is the workload's footprint, walked through the cursor's
	// caches before functional warming — the same pre-warm a full run gets.
	WarmRanges [][2]uint64
	// Warmup and Measure mirror the full run's phases: the first interval
	// starts at position Warmup, and the Intervals tile [Warmup,
	// Warmup+Measure).
	Warmup  uint64
	Measure uint64
	// Plan is the sampling layout. Callers that know the machine's window
	// geometry should pass a completed plan (Plan.Complete); Run completes
	// any remaining zero fields with an unknown window.
	Plan Plan
	// Load fetches a previously stored checkpoint for a stream position,
	// or nil. A checkpoint of any other position counts as a miss.
	// Optional.
	Load func(pos uint64) *ckpt.Checkpoint
	// Store persists a freshly captured checkpoint. Optional.
	Store func(c *ckpt.Checkpoint)
	// LendCPU asks for a CPU on which a detailed interval can run beside
	// the walk to the next interval start. It returns the function that
	// gives the CPU back, which Run calls once it has joined the interval,
	// or nil when no CPU is spare; the interval then runs inline, in the
	// order a run without LendCPU uses. Run calls it from its own goroutine,
	// once per interval. Optional.
	LendCPU func() (giveBack func())
}

// IO counts checkpoint-store traffic for one sampled run. It feeds runner
// metrics, not results: whether state was recomputed or reloaded must not
// change what the run produces.
type IO struct {
	Hits   uint64
	Misses uint64
	Writes uint64
}

// Summary reports how a sampled run was laid out and the statistical
// quality of its CPI estimate. It is part of the run's Result, so it holds
// only values that are a pure function of the spec — never of checkpoint
// availability or timing.
type Summary struct {
	// Intervals, Interval, Warmup echo the normalized plan.
	Intervals int    `json:"intervals"`
	Interval  uint64 `json:"interval"`
	Warmup    uint64 `json:"warmup"`
	// DetailedInstrs counts pipeline-simulated instructions (warmup +
	// measured, all intervals); FullInstrs what an unsampled run would
	// have simulated in detail.
	DetailedInstrs uint64 `json:"detailed_instrs"`
	FullInstrs     uint64 `json:"full_instrs"`
	// CPI is the sampled estimate: total measured cycles over total
	// measured instructions, which with equal-length intervals equals the
	// mean of per-interval CPIs.
	CPI float64 `json:"cpi"`
	// CPIStdDev is the sample standard deviation of per-interval CPIs;
	// CPICI95 the half-width of the 95% confidence interval on the mean
	// (Student's t with Intervals-1 degrees of freedom).
	CPIStdDev float64 `json:"cpi_stddev"`
	CPICI95   float64 `json:"cpi_ci95"`
}

// Reduction returns FullInstrs/DetailedInstrs, the factor by which sampling
// shrank the detailed-simulation work.
func (s *Summary) Reduction() float64 {
	if s.DetailedInstrs == 0 {
		return 0
	}
	return float64(s.FullInstrs) / float64(s.DetailedInstrs)
}

// Run executes a sampled simulation: a functional cursor sweeps the stream
// warming caches and predictors, architectural checkpoints are captured (or
// reloaded) at each interval start, and a fresh engine measures each
// interval in detail from the checkpointed state. The stream is walked once:
// one generator serves the cursor, the moves past reloaded intervals and
// the detailed reads (see tape). When the generator NewGen returns can save
// and load its state (SaveState and LoadState, as workload.Benchmark), each
// captured checkpoint carries that state, and a reloaded one resumes the
// stream from it rather than regenerating the stream up to its position.
// Either way every instruction an engine sees is the one a plain walk would
// give it. The aggregate Stats sum the measured intervals, so downstream
// consumers (tables, CSV, JSON) read them exactly like full-run stats.
//
// The walk and the detailed intervals read no state of each other's, so
// when LendCPU grants a CPU, interval i runs on a helper goroutine as soon
// as checkpoint i exists, while the calling goroutine walks on toward
// checkpoint i+1. At most one interval is in flight: Run joins it before it
// dispatches the next, seeks to a checkpoint hit or stores a checkpoint,
// so hits stay serial, only the cursor and one detailed engine are alive at
// a time, and statistics, per-interval CPIs, IO and Store calls follow
// interval order. Results, stored checkpoints and IO are therefore the same
// whether or not a CPU was lent. A panic in an interval reaches Run's caller
// with the same value, ahead of any later failure of the walk, and no
// goroutine Run starts outlives it.
func Run(c Config) (*pipeline.Stats, *Summary, IO, error) {
	var io IO
	plan := c.Plan.Complete(c.Warmup, c.Measure, 0)
	if err := plan.Validate(c.Measure); err != nil {
		return nil, nil, io, err
	}
	k := uint64(plan.Intervals)
	stride := c.Measure / k
	starts := make([]uint64, k)
	for i := range starts {
		starts[i] = c.Warmup + uint64(i)*stride
	}

	// The functional cursor is built lazily: a resumed run that finds every
	// checkpoint in the store never pays for functional warming at all. It
	// sits at the walk's position whenever it exists; a checkpoint hit
	// drops it, and the next miss seats a fresh one from the last
	// checkpoint, which was taken at the walk's position too.
	var (
		walk   = newTape(c.NewGen())
		cursor Engine
		lastCk *ckpt.Checkpoint
		// flight is the detailed interval dispatched last and not yet
		// folded into the aggregate.
		flight *interval
	)
	agg := &pipeline.Stats{}
	cpis := make([]float64, 0, plan.Intervals)
	// join waits for the interval in flight, re-raises its panic, and folds
	// its statistics.
	join := func() {
		if iv := flight; iv != nil {
			flight = nil
			st := iv.wait()
			accumulate(agg, st)
			cpis = append(cpis, float64(st.Cycles)/float64(st.Committed))
		}
	}
	// A panic of the walk joins the interval in flight: no goroutine
	// outlives Run, and in interval order the interval came first, so its
	// panic, if any, is the one raised.
	defer func() {
		if flight != nil {
			flight.wait()
		}
	}()
	fail := func(err error) (*pipeline.Stats, *Summary, IO, error) {
		join()
		return nil, nil, io, err
	}
	for i, pos := range starts {
		var ck *ckpt.Checkpoint
		if c.Load != nil {
			// A checkpoint of another position cannot seat the walk.
			if ck = c.Load(pos); ck != nil && ck.Pos != pos {
				ck = nil
			}
		}
		if ck != nil {
			io.Hits++
			cursor = nil
			join()
			walk.seek(pos, ck.Gen)
		} else {
			io.Misses++
			if cursor == nil {
				cursor = c.NewEngine()
				if lastCk != nil {
					if err := cursor.RestoreArch(lastCk); err != nil {
						return fail(err)
					}
				} else {
					cursor.Hierarchy().Warm(c.WarmRanges)
				}
			}
			cursor.WarmFunctional(walk, pos-walk.pos)
			var err error
			if ck, err = cursor.CaptureArch(c.Bench, pos); err != nil {
				return fail(err)
			}
			ck.Gen = walk.genState()
			join()
			if c.Store != nil {
				c.Store(ck)
				io.Writes++
			}
		}
		lastCk = ck

		eng := c.NewEngine()
		if err := eng.RestoreArch(ck); err != nil {
			return nil, nil, io, err
		}
		r := walk.read(starts[i+1:], plan.Warmup+plan.Interval+eng.Lookahead())
		flight = &interval{eng: eng, r: r, warmup: plan.Warmup, measure: plan.Interval}
		if c.LendCPU != nil {
			flight.giveBack = c.LendCPU()
		}
		flight.start()
	}
	join()

	mean, sd := meanStdDev(cpis)
	sum := &Summary{
		Intervals:      plan.Intervals,
		Interval:       plan.Interval,
		Warmup:         plan.Warmup,
		DetailedInstrs: k * (plan.Warmup + plan.Interval),
		FullInstrs:     c.Warmup + c.Measure,
		CPI:            mean,
		CPIStdDev:      sd,
		CPICI95:        tCritical95(plan.Intervals-1) * sd / math.Sqrt(float64(plan.Intervals)),
	}
	return agg, sum, io, nil
}

// intervalStopped is the value Run raises when a detailed interval ended
// its goroutine with runtime.Goexit rather than returning or panicking.
const intervalStopped = "sample: a detailed interval exited its goroutine (runtime.Goexit)"

// interval is one detailed interval's run of its engine over its reader:
// on a helper goroutine when a CPU was lent for it, else inline.
type interval struct {
	eng             Engine
	r               *reader
	warmup, measure uint64
	// giveBack returns the lent CPU; nil when the interval runs inline.
	giveBack func()
	done     chan struct{}
	st       *pipeline.Stats
	failure  any // what ended the helper goroutine, if not the interval's end
}

// start runs the interval: inline, where a panic propagates at once, or on
// a helper goroutine, which records its panic for wait.
func (iv *interval) start() {
	if iv.giveBack == nil {
		iv.run()
		return
	}
	iv.done = make(chan struct{})
	go func() {
		finished := false
		defer func() {
			if !finished {
				if iv.failure = recover(); iv.failure == nil {
					iv.failure = intervalStopped
				}
			}
			close(iv.done)
		}()
		iv.run()
		finished = true
	}()
}

// run simulates the interval, then closes its reader and drops its engine,
// which can be collected while the walk goes on.
func (iv *interval) run() {
	iv.st = iv.eng.Run(iv.r, iv.warmup, iv.measure)
	iv.r.close()
	iv.eng, iv.r = nil, nil
}

// wait joins the interval, gives its CPU back, and returns its statistics,
// re-raising its panic.
func (iv *interval) wait() *pipeline.Stats {
	if iv.done != nil {
		<-iv.done
		iv.giveBack()
	}
	if iv.failure != nil {
		panic(iv.failure)
	}
	return iv.st
}

// accumulate folds one interval's stats into the aggregate: counters add,
// high-water marks take the max.
func accumulate(agg, st *pipeline.Stats) {
	agg.Cycles += st.Cycles
	agg.Committed += st.Committed
	agg.Fetched += st.Fetched
	agg.Branches += st.Branches
	agg.Mispredicts += st.Mispredicts
	for i := range agg.LoadLevel {
		agg.LoadLevel[i] += st.LoadLevel[i]
	}
	agg.StallROBFull += st.StallROBFull
	agg.StallIQFull += st.StallIQFull
	agg.StallLSQFull += st.StallLSQFull
	for i := range agg.IssueLat.Buckets {
		agg.IssueLat.Buckets[i] += st.IssueLat.Buckets[i]
	}
	agg.IssueLat.Total += st.IssueLat.Total
	agg.IssueLat.SumCycles += st.IssueLat.SumCycles
	agg.CPCommitted += st.CPCommitted
	agg.MPCommitted += st.MPCommitted
	for i := range agg.MaxLLIBInstrs {
		if st.MaxLLIBInstrs[i] > agg.MaxLLIBInstrs[i] {
			agg.MaxLLIBInstrs[i] = st.MaxLLIBInstrs[i]
		}
		if st.MaxLLIBRegs[i] > agg.MaxLLIBRegs[i] {
			agg.MaxLLIBRegs[i] = st.MaxLLIBRegs[i]
		}
	}
	agg.LLIBFullStalls += st.LLIBFullStalls
	agg.AnalyzeWaitStalls += st.AnalyzeWaitStalls
	agg.Checkpoints += st.Checkpoints
	agg.Recoveries += st.Recoveries
	agg.LLRFBankConflicts += st.LLRFBankConflicts
}

func meanStdDev(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// tCritical95 returns the two-sided 95% critical value of Student's t
// distribution for the given degrees of freedom (normal beyond 30).
func tCritical95(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < 1 {
		return math.NaN()
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.960
}
