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
	// run's tape keeps a detailed interval's read-ahead up to this bound,
	// and a checkpoint hit fans out only when the bound leaves its reads
	// inside the stride.
	Lookahead() uint64
}

// Config drives one sampled run.
type Config struct {
	// Bench names the workload, stamped into captured checkpoints.
	Bench string
	// NewEngine builds a fresh processor: the functional cursor (again
	// after a checkpoint hit drops it) and each detailed interval's engine.
	// A detailed interval builds its own, on the helper goroutine that runs
	// it when a CPU was lent for it, so NewEngine may run at the same time
	// as Run's other calls.
	NewEngine func() Engine
	// NewGen builds a fresh generator positioned at stream start, sharing
	// no state with any other it built. Run calls it from its own
	// goroutine: once for the walk, whose generator produces every
	// instruction the run reads through its tape, and once more for each
	// checkpoint hit that reads from a generator of its own (see Run).
	// When it also has SaveState and LoadState, as workload.Benchmark
	// does, checkpoints carry its state and hits resume the stream from
	// it.
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
	// or nil. A checkpoint of any other position counts as a miss. Run
	// calls it from its own goroutine, once per interval start, in stream
	// order. Optional.
	Load func(pos uint64) *ckpt.Checkpoint
	// Store persists a freshly captured checkpoint. The interval that
	// starts at the checkpoint calls it, so it runs on that interval's
	// helper goroutine when a CPU was lent, at the same time as the walk's
	// Load of a later position; Store calls still follow stream order.
	// Optional.
	Store func(c *ckpt.Checkpoint)
	// LendCPU asks for a CPU on which a detailed interval can run beside
	// the walk and the other intervals in flight. It returns the function
	// that gives the CPU back, which the interval's helper goroutine calls
	// as it ends, or nil when no CPU is spare; the interval then runs
	// inline, in the order a run without LendCPU uses. Run calls it from
	// its own goroutine, once per interval, in interval order. Optional.
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
// the detailed reads (see tape), apart from the checkpoint hits that fan
// out (below), which read generators of their own. When the generator
// NewGen returns can save and load its state (SaveState and LoadState, as
// workload.Benchmark), each captured checkpoint carries that state, and a
// reloaded one resumes the stream from it rather than regenerating the
// stream up to its position. Either way every instruction an engine sees
// is the one a plain walk would give it. The aggregate Stats sum the
// measured intervals, so downstream consumers (tables, CSV, JSON) read
// them exactly like full-run stats.
//
// The walk and the detailed intervals read no state of each other's. The
// walk only captures (or loads) checkpoint i and hands it over: interval i
// then stores it when it was captured, builds its engine, restores the
// checkpoint into it and runs. When LendCPU grants a CPU, the interval does
// all of that on a helper goroutine while the calling goroutine walks on
// toward checkpoint i+1. An interval that reads the walk's tape is joined
// before the next interval is dispatched, so one reader of the tape is
// live at a time and Store calls follow interval order.
//
// A checkpoint hit fans out when its stream needs nothing from the walk:
// the generator has state methods, its checkpoint carries generator state,
// the next interval start, if there is one, is a hit whose checkpoint
// carries state too, and the interval's span (detailed warmup and interval
// plus the engine's Lookahead) fits in the stride between starts. Such an
// interval reads from a generator of its own (NewGen, loaded with its
// checkpoint's state), which no other interval's reads overlap, and the
// walk does not pass its positions, so no stream position is generated
// twice. It does not wait for the fanned-out intervals in flight: each
// lent CPU runs one, and when none is lent the caller, which has no walk
// to do, runs it inline, so at most one more fanned-out interval than the
// CPUs lent runs at once, each holding one engine. Every other interval
// reads the tape.
//
// Statistics, per-interval CPIs and IO fold in interval order, so results,
// stored checkpoints and IO are the same whether or not CPUs were lent. The
// first failure in interval order is the one Run's caller sees: a panic of
// an interval or of the walk with its own value, or an error restoring a
// checkpoint. No goroutine Run starts outlives it.
func Run(c Config) (st *pipeline.Stats, sum *Summary, io IO, err error) {
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
		// span is how far one interval reads from its start, taken from
		// the run's first engine: every engine NewEngine returns has the
		// same geometry, so the same Lookahead.
		span uint64
		// next is the checkpoint at the next interval start, once Run has
		// looked it up to decide how a hit reads (looked).
		next   *ckpt.Checkpoint
		looked bool
		fl     = flights{cpis: make([]float64, 0, plan.Intervals)}
	)
	// Run may be unwinding a panic of the walk or of an interval it ran
	// inline while other intervals are in flight: it waits for them, and
	// the failure of one that comes first in interval order replaces the
	// panic.
	defer func() {
		for _, iv := range fl.drain() {
			if iv.failure != nil {
				panic(iv.failure)
			}
			if iv.err != nil {
				recover()
				st, sum, err = nil, nil, iv.err
				return
			}
		}
	}()
	fail := func(err error) (*pipeline.Stats, *Summary, IO, error) {
		if jerr := fl.join(); jerr != nil {
			err = jerr
		}
		return nil, nil, io, err
	}
	// settle joins the intervals in flight when the last one reads the
	// tape, before the walk seeks, a new reader starts or the next
	// interval is dispatched.
	settle := func() error {
		if fl.tape {
			return fl.join()
		}
		return nil
	}
	load := func(pos uint64) *ckpt.Checkpoint {
		if c.Load == nil {
			return nil
		}
		// A checkpoint of another position cannot seat the walk.
		if ck := c.Load(pos); ck != nil && ck.Pos == pos {
			return ck
		}
		return nil
	}
	resumes := func(ck *ckpt.Checkpoint) bool {
		return ck != nil && ck.Gen != nil && walk.state != nil
	}
	for i, pos := range starts {
		ck := next
		if !looked {
			ck = load(pos)
		}
		next, looked = nil, false
		iv := &interval{c: &c, warmup: plan.Warmup, measure: plan.Interval}
		if ck != nil {
			io.Hits++
			cursor = nil
			if span == 0 {
				iv.eng = c.NewEngine()
				span = plan.Warmup + plan.Interval + iv.eng.Lookahead()
			}
			fans := resumes(ck) && span <= stride
			if fans && i+1 < len(starts) {
				next, looked = load(starts[i+1]), true
				fans = resumes(next)
			}
			if err := settle(); err != nil {
				return fail(err)
			}
			if fans {
				iv.own = newTape(c.NewGen())
			} else {
				walk.seek(pos, ck.Gen)
			}
		} else {
			io.Misses++
			if cursor == nil {
				cursor = c.NewEngine()
				if span == 0 {
					span = plan.Warmup + plan.Interval + cursor.Lookahead()
				}
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
			iv.store = c.Store != nil
			if iv.store {
				io.Writes++
			}
			if err := settle(); err != nil {
				return fail(err)
			}
		}
		lastCk = ck
		iv.ck = ck
		if iv.own == nil {
			iv.r = walk.read(starts[i+1:], span)
		}
		fl.dispatch(iv, c.LendCPU)
	}
	if err := fl.join(); err != nil {
		return nil, nil, io, err
	}

	mean, sd := meanStdDev(fl.cpis)
	sum = &Summary{
		Intervals:      plan.Intervals,
		Interval:       plan.Interval,
		Warmup:         plan.Warmup,
		DetailedInstrs: k * (plan.Warmup + plan.Interval),
		FullInstrs:     c.Warmup + c.Measure,
		CPI:            mean,
		CPIStdDev:      sd,
		CPICI95:        tCritical95(plan.Intervals-1) * sd / math.Sqrt(float64(plan.Intervals)),
	}
	return &fl.agg, sum, io, nil
}

// intervalStopped is the value Run raises when a detailed interval ended
// its goroutine with runtime.Goexit rather than returning or panicking.
const intervalStopped = "sample: a detailed interval exited its goroutine (runtime.Goexit)"

// interval is one detailed interval: its set-up and its engine's run over
// its stream, on a helper goroutine when a CPU was lent for it, else
// inline.
type interval struct {
	c  *Config
	ck *ckpt.Checkpoint
	// store is set when the walk captured ck and the interval stores it.
	store bool
	// eng is the engine Run built to learn Lookahead, when it built the
	// run's first engine for this interval; otherwise the interval builds
	// its own.
	eng Engine
	// The interval reads the walk's tape through r, or, when it fans out,
	// a tape of its own, seated at its checkpoint.
	r               *reader
	own             *tape
	warmup, measure uint64
	// giveBack returns the lent CPU; nil when the interval runs inline.
	giveBack func()
	done     chan struct{}
	st       *pipeline.Stats
	err      error // restoring the checkpoint failed
	failure  any   // what ended the helper goroutine, if not the interval's end
}

// start runs the interval: inline, where a panic propagates at once, or on
// a helper goroutine, which records its panic for Run and gives the CPU
// back as it ends.
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
			iv.giveBack()
			close(iv.done)
		}()
		iv.run()
		finished = true
	}()
}

// run sets the interval up and simulates it, then drops its engine and its
// stream, which can be collected while the run goes on.
func (iv *interval) run() {
	if iv.store {
		iv.c.Store(iv.ck)
	}
	eng := iv.eng
	if eng == nil {
		eng = iv.c.NewEngine()
	}
	if iv.err = eng.RestoreArch(iv.ck); iv.err == nil {
		var g trace.Generator = iv.r
		if iv.own != nil {
			iv.own.seek(iv.ck.Pos, iv.ck.Gen)
			g = iv.own
		}
		iv.st = eng.Run(g, iv.warmup, iv.measure)
	}
	if iv.r != nil {
		iv.r.close()
	}
	iv.eng, iv.r, iv.own = nil, nil, nil
}

// flights are the detailed intervals Run has dispatched and not yet
// joined, in interval order, and the statistics of those it has joined.
type flights struct {
	q    []*interval
	tape bool // the last interval dispatched reads the walk's tape
	agg  pipeline.Stats
	cpis []float64
}

// dispatch asks lend, when set, for a CPU and starts iv.
func (f *flights) dispatch(iv *interval, lend func() func()) {
	f.q = append(f.q, iv)
	f.tape = iv.r != nil
	if lend != nil {
		iv.giveBack = lend()
	}
	iv.start()
}

// drain waits for every interval in flight and returns them, in interval
// order.
func (f *flights) drain() []*interval {
	q := f.q
	f.q, f.tape = nil, false
	for _, iv := range q {
		if iv.done != nil {
			<-iv.done
		}
	}
	return q
}

// join waits for every interval in flight and folds their statistics in
// interval order. The first of them that failed is reported instead: its
// panic is raised again with the same value, or its error returned.
func (f *flights) join() error {
	for _, iv := range f.drain() {
		if iv.failure != nil {
			panic(iv.failure)
		}
		if iv.err != nil {
			return iv.err
		}
		f.agg.Add(iv.st)
		f.cpis = append(f.cpis, float64(iv.st.Cycles)/float64(iv.st.Committed))
	}
	return nil
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
