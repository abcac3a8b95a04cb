package core

import (
	"testing"
	"testing/quick"

	"dkip/internal/mem"
	"dkip/internal/workload"
)

// TestRandomConfigsRun drives the D-KIP with randomized (but valid)
// configurations over a real workload: every run must complete, with IPC in
// (0, width], commits conserved, and occupancies within structural bounds.
func TestRandomConfigsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	check := func(cpIno, mpIno bool, cpq, mpq, llib, timer, banks uint8) bool {
		cfg := Config{
			CPInOrder: cpIno,
			MPInOrder: Bool(mpIno),
			CPIQSize:  8 + int(cpq)%72,
			MPIQSize:  4 + int(mpq)%36,
			LLIBSize:  64 + int(llib)*8,
			ROBTimer:  8 + int(timer)%32,
			LLRFBanks: 1 + int(banks)%15,
		}
		g := workload.MustNew("equake")
		p := New(cfg)
		p.Hierarchy().Warm(g.WarmRanges())
		st := p.Run(g, 1000, 6000)
		if st.Committed < 6000 {
			t.Logf("config %+v committed only %d", cfg, st.Committed)
			return false
		}
		if ipc := st.IPC(); ipc <= 0 || ipc > 4.0 {
			t.Logf("config %+v IPC %.3f out of (0,4]", cfg, ipc)
			return false
		}
		if st.CPCommitted+st.MPCommitted != st.Committed {
			t.Logf("config %+v commit split broken", cfg)
			return false
		}
		for i := 0; i < 2; i++ {
			if st.MaxLLIBInstrs[i] > cfg.WithDefaults().LLIBSize {
				t.Logf("config %+v LLIB overflow", cfg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAllBenchmarksComplete runs the default D-KIP briefly on every
// benchmark: none may deadlock or produce degenerate statistics.
func TestAllBenchmarksComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep")
	}
	for _, name := range workload.Names() {
		g := workload.MustNew(name)
		p := New(Config{})
		p.Hierarchy().Warm(g.WarmRanges())
		st := p.Run(g, 2000, 10000)
		if st.Committed < 10000 {
			t.Errorf("%s: committed %d", name, st.Committed)
		}
		if st.IPC() <= 0 || st.IPC() > 4 {
			t.Errorf("%s: IPC %.3f", name, st.IPC())
		}
		if st.Cycles <= 0 {
			t.Errorf("%s: cycles %d", name, st.Cycles)
		}
	}
}

// TestMemoryConfigsComplete runs the D-KIP under every Table 1 memory
// subsystem — including the perfect-cache ones where the LLIB is never used.
func TestMemoryConfigsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	for _, mc := range mem.Table1Configs() {
		g := workload.MustNew("applu")
		p := New(Config{Mem: mc})
		p.Hierarchy().Warm(g.WarmRanges())
		st := p.Run(g, 2000, 10000)
		if st.Committed < 10000 {
			t.Errorf("%s: committed %d", mc.Name, st.Committed)
		}
		if mc.MemLatency == 0 && st.MPCommitted > 0 {
			t.Errorf("%s: %d instructions took the slow path under a perfect cache",
				mc.Name, st.MPCommitted)
		}
	}
}

// TestReplayRecoveryCostsBounded: enabling the replay-distance recovery model
// must change IPC only moderately (recoveries are rare relative to commits).
func TestReplayRecoveryCostsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	run := func(cfg Config) float64 {
		g := workload.MustNew("twolf")
		p := New(cfg)
		p.Hierarchy().Warm(g.WarmRanges())
		return p.Run(g, 3000, 15000).IPC()
	}
	base := run(Config{})
	replay := run(Config{ReplayRecovery: true})
	if replay > base*1.02 {
		t.Errorf("adding recovery cost cannot speed the machine up: %.3f vs %.3f", replay, base)
	}
	if replay < base*0.7 {
		t.Errorf("replay recovery cost implausibly large: %.3f vs %.3f", replay, base)
	}
}
