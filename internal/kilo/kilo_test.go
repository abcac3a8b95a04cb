package kilo

import (
	"testing"

	"dkip/internal/ooo"
	"dkip/internal/workload"
)

func TestConfig1024(t *testing.T) {
	c := Config1024()
	if c.ROBSize != 64 {
		t.Errorf("pseudo-ROB = %d, want 64", c.ROBSize)
	}
	if c.IQSize != 72 {
		t.Errorf("issue queues = %d, want 72", c.IQSize)
	}
	if c.SLIQSize != 1024 {
		t.Errorf("SLIQ = %d, want 1024", c.SLIQSize)
	}
	if c.LSQSize != 512 {
		t.Errorf("LSQ = %d, want 512", c.LSQSize)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestKILOBeatsSmallWindowOnMLP(t *testing.T) {
	// On a streaming FP workload with independent misses, KILO-1024's
	// virtual window must decisively beat the R10-64 it is built from.
	run := func(cfg ooo.Config) float64 {
		g := workload.MustNew("applu")
		p := ooo.New(cfg)
		p.Hierarchy().Warm(g.WarmRanges())
		return p.Run(g, 10000, 40000).IPC()
	}
	kilo := run(Config1024())
	base := run(ooo.R10K64())
	if kilo < 2*base {
		t.Errorf("KILO-1024 (%.3f) should far exceed R10-64 (%.3f) on streaming FP", kilo, base)
	}
}
