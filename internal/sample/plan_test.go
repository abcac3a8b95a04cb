package sample

import (
	"math"
	"strings"
	"testing"
)

func TestPlanComplete(t *testing.T) {
	const warmup, measure = 10_000, 1_000_000
	// Small window: the warmup floor applies, the interval targets the
	// reduction budget exactly.
	p := DefaultPlan().Complete(warmup, measure, 64)
	if p.Intervals != defaultIntervals {
		t.Errorf("Intervals = %d, want %d", p.Intervals, defaultIntervals)
	}
	if p.Warmup != minDetailedWarmup {
		t.Errorf("Warmup = %d, want floor %d", p.Warmup, minDetailedWarmup)
	}
	budget := uint64(warmup+measure) / reductionTarget
	if got := uint64(p.Intervals) * (p.Warmup + p.Interval); got != budget {
		t.Errorf("detailed total %d, want the full budget %d", got, budget)
	}
	// Large window: warmup scales with it, interval shrinks to keep the
	// budget.
	big := DefaultPlan().Complete(warmup, measure, 2048)
	if big.Warmup != windowWarmFactor*2048 {
		t.Errorf("Warmup = %d, want %d", big.Warmup, windowWarmFactor*2048)
	}
	if got := uint64(big.Intervals) * (big.Warmup + big.Interval); got != budget {
		t.Errorf("detailed total %d, want the full budget %d", got, budget)
	}
	// Tiny scale: defaults clamp into the stride rather than producing an
	// invalid plan.
	tiny := DefaultPlan().Complete(2_000, 8_000, 2048)
	if err := tiny.Validate(8_000); err != nil {
		t.Errorf("clamped tiny-scale plan invalid: %v", err)
	}
	if tiny.Warmup+tiny.Interval > 8_000/uint64(tiny.Intervals) {
		t.Errorf("tiny-scale plan %+v does not fit its stride", tiny)
	}
	// Sub-minInterval strides still complete to a valid plan: the warmup
	// reserves half the stride for measurement instead of erroring.
	small := DefaultPlan().Complete(300, 1_000, 2048)
	if err := small.Validate(1_000); err != nil {
		t.Errorf("tiny-stride plan invalid: %v", err)
	}
	if small.Warmup == 0 || small.Interval == 0 {
		t.Errorf("tiny-stride plan degenerate: %+v", small)
	}
	// Explicit fields survive completion verbatim.
	exp := Plan{Intervals: 7, Interval: 123, Warmup: 456}.Complete(warmup, measure, 64)
	if exp != (Plan{Intervals: 7, Interval: 123, Warmup: 456}) {
		t.Errorf("explicit plan rewritten to %+v", exp)
	}
	// Completion is idempotent, so defaulted and explicit spellings of one
	// plan stay one plan.
	if again := p.Complete(warmup, measure, 64); again != p {
		t.Errorf("completion not idempotent: %+v != %+v", again, p)
	}
	// Disabled stays disabled.
	if z := (Plan{}).Complete(warmup, measure, 64); z.Enabled() {
		t.Errorf("zero plan completed to %+v", z)
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (Plan{}).Validate(1000); err != nil {
		t.Errorf("disabled plan must validate: %v", err)
	}
	if err := (Plan{Intervals: 1}).Validate(1_000_000); err == nil || !strings.Contains(err.Error(), "2 intervals") {
		t.Errorf("single interval validated: %v", err)
	}
	if err := (Plan{Intervals: 8}).Validate(4); err == nil {
		t.Error("measure smaller than interval count validated")
	}
	// An explicit interval that overflows its stride is an error, not a
	// silent clamp.
	if err := (Plan{Intervals: 4, Interval: 300_000, Warmup: 100}.Validate(1_000_000)); err == nil {
		t.Error("overfull interval validated")
	}
	if err := DefaultPlan().Validate(1_000_000); err != nil {
		t.Errorf("default plan invalid: %v", err)
	}
	// warmup+interval wraps to 1, which fits any stride: the sum must not
	// be formed.
	if err := (Plan{Intervals: 4, Warmup: 2, Interval: math.MaxUint64}.Validate(40_000)); err == nil {
		t.Error("plan whose warmup+interval wraps validated")
	}
	// 2^37 one-instruction intervals tile a 2^39-instruction run, but
	// would need a start and an engine each.
	if err := (Plan{Intervals: 1 << 37, Warmup: 1, Interval: 1}.Validate(1 << 39)); err == nil || !strings.Contains(err.Error(), "MaxIntervals") {
		t.Errorf("2^37 intervals validated: %v", err)
	}
	if err := (Plan{Intervals: MaxIntervals, Warmup: 1, Interval: 1}.Validate(2 * MaxIntervals)); err != nil {
		t.Errorf("MaxIntervals intervals invalid: %v", err)
	}
}

func TestPlanString(t *testing.T) {
	if got := (Plan{}).String(); got != "full" {
		t.Errorf("zero plan renders %q", got)
	}
	if got := (Plan{Intervals: 4, Interval: 500, Warmup: 2000}).String(); got != "4x500+2000w" {
		t.Errorf("plan renders %q", got)
	}
}
