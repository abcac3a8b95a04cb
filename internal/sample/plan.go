// Package sample implements SMARTS-style statistical sampling for the
// trace-driven simulators: long stretches of cheap functional warming
// (caches and predictors only, no pipeline) punctuated by short detailed
// measurement intervals, whose per-interval CPIs yield a mean with a
// confidence interval. Architectural checkpoints (internal/ckpt) captured at
// interval boundaries make sampled runs resumable and let sweep points that
// share a memory/predictor configuration skip the functional fast-forward
// entirely.
package sample

import "fmt"

// MaxIntervals caps Plan.Intervals. Run builds one engine per interval and
// holds a start position and a CPI for each, so an unbounded count is a
// way to exhaust memory; the repository's experiments use at most 8.
const MaxIntervals = 1024

// Plan describes how a run is sampled. The zero value means "not sampled":
// a full detailed run. Any non-zero field enables sampling, with the
// remaining fields defaulted by Complete relative to the run's scale and the
// machine's instruction window.
//
// Plan is part of a RunSpec's content-addressed identity (internal/sim hashes
// the completed plan), so two specs asking for the same sampling — whether
// spelled explicitly or via defaults — memoize as the same run.
type Plan struct {
	// Intervals is the number of detailed measurement intervals (default
	// 4, at most MaxIntervals).
	Intervals int `json:"intervals,omitempty"`
	// Interval is the number of instructions measured in detail per
	// interval (default: whatever keeps total detailed work, warmup
	// included, within a tenth of the full run).
	Interval uint64 `json:"interval,omitempty"`
	// Warmup is the number of detailed (pipeline-filling) warmup
	// instructions run before each measured interval, on top of the
	// functional warming that established cache and predictor state
	// (default: four times the machine's instruction window, at least
	// 2000). It must cover the window's fill time: an interval measured
	// mid-fill reads its CPI from the warmup burst's overlapped misses,
	// which on memory-bound workloads under-reads a kilo-instruction
	// machine by up to ~50%.
	Warmup uint64 `json:"warmup,omitempty"`
}

// Enabled reports whether the plan asks for sampling at all.
func (p Plan) Enabled() bool {
	return p.Intervals != 0 || p.Interval != 0 || p.Warmup != 0
}

// DefaultPlan returns a plan that samples with all knobs defaulted.
func DefaultPlan() Plan { return Plan{Intervals: defaultIntervals} }

const (
	defaultIntervals = 4
	// minDetailedWarmup floors the per-interval detailed warmup even for
	// small-window machines: pipelines, queues and in-flight misses need a
	// couple thousand instructions to reach steady state.
	minDetailedWarmup = 2000
	// minInterval floors the measured interval; shorter intervals measure
	// mostly boundary noise.
	minInterval = 1000
	// reductionTarget is the detailed-instruction reduction the defaulted
	// interval length aims for: total detailed work (warmup + measured,
	// all intervals) stays within warmup+measure over this factor.
	reductionTarget = 10
	// windowWarmFactor scales the machine's instruction window into the
	// default detailed warmup. Four window-fills is where measured bias
	// went under 1% for the 2048-entry D-KIP on its worst workloads.
	windowWarmFactor = 4
)

// Complete resolves defaulted fields so that a defaulted plan and its
// explicit spelling are the same plan. warmup/measure are the run's scale;
// window is the machine's in-flight instruction capacity (pass 0 when
// unknown — the warmup floor still applies). A disabled plan completes to
// the zero value. Defaulted fields are clamped to fit the interval stride;
// explicitly set fields are taken literally and left to Validate.
func (p Plan) Complete(warmup, measure, window uint64) Plan {
	if !p.Enabled() {
		return Plan{}
	}
	if p.Intervals <= 0 {
		p.Intervals = defaultIntervals
	}
	stride := measure / uint64(p.Intervals)
	if p.Warmup == 0 {
		d := windowWarmFactor * window
		if d < minDetailedWarmup {
			d = minDetailedWarmup
		}
		// Clamp into the stride, always reserving room for a measured
		// slice — the full minInterval when the stride affords it, half
		// the stride below that, so a defaulted plan stays valid at any
		// scale a caller can reach rather than erroring below ~4x
		// minInterval of measured instructions.
		reserve := uint64(minInterval)
		if half := stride / 2; half < reserve {
			reserve = half
		}
		if d > stride-reserve {
			d = stride - reserve
		}
		p.Warmup = d
	}
	if p.Interval == 0 {
		l := uint64(minInterval)
		if per := (warmup + measure) / reductionTarget / uint64(p.Intervals); per > p.Warmup+minInterval {
			l = per - p.Warmup
		}
		if p.Warmup < stride && l > stride-p.Warmup {
			l = stride - p.Warmup
		}
		p.Interval = l
	}
	return p
}

// Validate reports an error when the plan cannot tile the run: intervals
// must fit between their start positions, and at least two intervals are
// needed for a confidence interval, and at most MaxIntervals are allowed.
// It expects a completed plan (Complete); zero fields are completed with an
// unknown window first.
func (p Plan) Validate(measure uint64) error {
	if !p.Enabled() {
		return nil
	}
	n := p.Complete(0, measure, 0)
	if n.Intervals < 2 {
		return fmt.Errorf("sample: need at least 2 intervals for a confidence interval, have %d", n.Intervals)
	}
	if n.Intervals > MaxIntervals {
		return fmt.Errorf("sample: %d intervals exceed the limit of %d (sample.MaxIntervals)", n.Intervals, MaxIntervals)
	}
	stride := measure / uint64(n.Intervals)
	if stride == 0 {
		return fmt.Errorf("sample: measure %d too small for %d intervals", measure, n.Intervals)
	}
	// Compared without forming the sum, which can wrap.
	if n.Warmup > stride || n.Interval > stride-n.Warmup {
		return fmt.Errorf("sample: interval warmup+measure %d+%d exceeds stride %d (measure %d / %d intervals)",
			n.Warmup, n.Interval, stride, measure, n.Intervals)
	}
	return nil
}

// String renders the normalized plan compactly, e.g. "4x500+500w".
func (p Plan) String() string {
	if !p.Enabled() {
		return "full"
	}
	return fmt.Sprintf("%dx%d+%dw", p.Intervals, p.Interval, p.Warmup)
}
