package engine

import (
	"fmt"

	"dkip/internal/ckpt"
	"dkip/internal/trace"
)

// WarmFunctional advances the architectural state — caches, branch
// predictor, confidence estimator when present — by n instructions of g
// without simulating the pipeline. internal/sample uses this as the
// fast-forward mode between detailed measurement intervals.
//
// It generates exactly n instructions, all on a producer goroutine running
// ahead of the warming loop (see Run), which warms a chunk at a time; a
// panic in g is re-raised here with the same value.
func (e *Engine) WarmFunctional(g trace.Generator, n uint64) {
	f := e.supply(g, n)
	defer f.abort()
	for c := f.chunk(); c != nil; c = f.chunk() {
		ckpt.WarmFunctional(e.Hier, e.BP, e.Conf, c)
	}
	f.finish()
}

// CaptureArch snapshots the architectural state into a checkpoint at stream
// position pos of workload bench. It fails when the configured predictor
// does not implement predictor.Stateful (custom constructors may not). The
// confidence section is present only for families with an estimator.
func (e *Engine) CaptureArch(bench string, pos uint64) (*ckpt.Checkpoint, error) {
	pred, err := e.BP.SaveState()
	if err != nil {
		return nil, err
	}
	c := &ckpt.Checkpoint{
		Bench:    bench,
		Pos:      pos,
		Hier:     e.Hier.SaveState(),
		PredName: e.BP.Name(),
		Pred:     pred,
	}
	if e.Conf != nil {
		conf, err := e.Conf.SaveState()
		if err != nil {
			return nil, err
		}
		c.Conf = conf
	}
	return c, nil
}

// RestoreArch loads a checkpoint captured by CaptureArch. The owner of each
// section, mem or predictor, checks it and refuses one that does not fit
// this engine. When the engine has a confidence estimator but the
// checkpoint carries no section for it (captured by an estimator-less
// family), the estimator is left untrained; a present section is ignored
// by families without one. The caller still owns positioning the generator
// at c.Pos.
func (e *Engine) RestoreArch(c *ckpt.Checkpoint) error {
	if c.PredName != e.BP.Name() {
		return fmt.Errorf("%s: checkpoint predictor %q does not match %q", e.P.Family, c.PredName, e.BP.Name())
	}
	if err := e.Hier.LoadState(c.Hier); err != nil {
		return fmt.Errorf("%s: checkpoint caches: %w", e.P.Family, err)
	}
	if err := e.BP.LoadState(c.Pred); err != nil {
		return err
	}
	if e.Conf != nil && c.Conf != nil {
		return e.Conf.LoadState(c.Conf)
	}
	return nil
}
