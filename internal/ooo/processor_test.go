package ooo

import (
	"testing"

	"dkip/internal/isa"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/trace"
)

// synth generates synthetic instruction streams for engine tests.
type synth struct {
	label string
	next  func(i uint64) isa.Instr
	n     uint64
}

func (s *synth) Next() isa.Instr { in := s.next(s.n); s.n++; return in }
func (s *synth) Name() string    { return s.label }

// independentALU: every instruction writes a rotating register and reads two
// old ones — near-perfect ILP.
func independentALU() trace.Generator {
	return &synth{label: "indep", next: func(i uint64) isa.Instr {
		return isa.Instr{
			PC: 0x1000 + i*4, Op: isa.IntALU,
			Dest: isa.IntReg(int(2 + i%24)),
			Src1: isa.IntReg(0), Src2: isa.IntReg(1), // never written: always ready
		}
	}}
}

// serialChain: every instruction depends on the previous one.
func serialChain() trace.Generator {
	return &synth{label: "chain", next: func(i uint64) isa.Instr {
		r := isa.IntReg(int(2 + i%2))
		prev := isa.IntReg(int(2 + (i+1)%2))
		return isa.Instr{PC: 0x1000 + i*4, Op: isa.IntALU, Dest: r, Src1: prev, Src2: isa.RegNone}
	}}
}

// missStream: every 8th instruction is a load to a fresh cache line (a cold
// miss); the rest are independent ALU ops. Misses are mutually independent,
// so a large window can overlap them.
func missStream() trace.Generator {
	return &synth{label: "miss", next: func(i uint64) isa.Instr {
		if i%8 == 0 {
			return isa.Instr{
				PC: 0x1000 + (i%512)*4, Op: isa.Load,
				Dest: isa.IntReg(int(2 + i%8)), Src1: isa.IntReg(0), Src2: isa.RegNone,
				Addr: 0x1000_0000 + i*64, // new line every load
			}
		}
		return isa.Instr{PC: 0x1000 + (i%512)*4, Op: isa.IntALU,
			Dest: isa.IntReg(int(10 + i%8)), Src1: isa.IntReg(0), Src2: isa.RegNone}
	}}
}

// missDependentBranches: loads that miss feed branches with random-looking
// outcomes — the paper's worst case for integer codes.
func missChain() trace.Generator {
	return &synth{label: "misschain", next: func(i uint64) isa.Instr {
		// A single endless pointer chain: every 4th instruction is a
		// load whose base is the previous load's destination.
		if i%4 == 0 {
			return isa.Instr{
				PC: 0x1000 + (i%64)*4, Op: isa.Load,
				Dest: isa.IntReg(2), Src1: isa.IntReg(2), Src2: isa.RegNone,
				Addr: 0x1000_0000 + i*64, ChainLoad: true,
			}
		}
		return isa.Instr{PC: 0x1000 + (i%64)*4, Op: isa.IntALU,
			Dest: isa.IntReg(int(10 + i%8)), Src1: isa.IntReg(0), Src2: isa.RegNone}
	}}
}

func run(t *testing.T, cfg Config, g trace.Generator, n uint64) *testStats {
	t.Helper()
	p := New(cfg)
	st := p.Run(g, 0, n)
	return &testStats{p: p, s: st}
}

type testStats struct {
	p *Processor
	s *pipeline.Stats
}

func TestIndependentILP(t *testing.T) {
	st := run(t, Config{Name: "t", ROBSize: 64, Mem: mem.Table1Configs()[0]}, independentALU(), 20000)
	if ipc := st.s.IPC(); ipc < 3.0 {
		t.Errorf("independent ALU stream IPC = %.2f, want near width", ipc)
	}
	if st.s.Committed != 20000 {
		t.Errorf("committed %d, want 20000", st.s.Committed)
	}
}

func TestSerialChainBoundsIPC(t *testing.T) {
	st := run(t, Config{Name: "t", ROBSize: 256, Mem: mem.Table1Configs()[0]}, serialChain(), 20000)
	if ipc := st.s.IPC(); ipc > 1.05 {
		t.Errorf("serial chain IPC = %.2f, cannot exceed 1", ipc)
	}
	if ipc := st.s.IPC(); ipc < 0.8 {
		t.Errorf("serial chain IPC = %.2f, should be near 1", ipc)
	}
}

func TestWindowEnablesMLP(t *testing.T) {
	small := run(t, Config{Name: "s", ROBSize: 32}, missStream(), 20000)
	big := run(t, Config{Name: "b", ROBSize: 2048}, missStream(), 20000)
	if big.s.IPC() < 3*small.s.IPC() {
		t.Errorf("window 2048 IPC %.3f should be >>3x window-32 IPC %.3f on independent misses",
			big.s.IPC(), small.s.IPC())
	}
}

func TestPointerChainDefeatsWindow(t *testing.T) {
	small := run(t, Config{Name: "s", ROBSize: 32}, missChain(), 4000)
	big := run(t, Config{Name: "b", ROBSize: 2048}, missChain(), 4000)
	// A single dependent chain gains nothing from window size.
	if big.s.IPC() > 1.3*small.s.IPC() {
		t.Errorf("dependent chain should not profit from window: %.3f vs %.3f",
			big.s.IPC(), small.s.IPC())
	}
}

// chainPairs emits two-hop pointer chains: head loads are address-ready,
// each followed (four instructions later) by one dependent hop. Out-of-order
// issue overlaps separate chains; an in-order queue serializes them behind
// the waiting hop.
func chainPairs() trace.Generator {
	return &synth{label: "pairs", next: func(i uint64) isa.Instr {
		if i%4 == 0 {
			if (i/4)%2 == 0 { // chain head: base always ready
				return isa.Instr{PC: 0x1000, Op: isa.Load, Dest: isa.IntReg(2),
					Src1: isa.IntReg(0), Src2: isa.RegNone, Addr: 0x1000_0000 + i*64}
			}
			// Dependent hop: base is the head's result.
			return isa.Instr{PC: 0x1010, Op: isa.Load, Dest: isa.IntReg(3),
				Src1: isa.IntReg(2), Src2: isa.RegNone, Addr: 0x2000_0000 + i*64, ChainLoad: true}
		}
		return isa.Instr{PC: 0x1020 + (i%4)*4, Op: isa.IntALU,
			Dest: isa.IntReg(int(10 + i%8)), Src1: isa.IntReg(0), Src2: isa.RegNone}
	}}
}

func TestInOrderSlowerThanOoO(t *testing.T) {
	mk := func(inOrder bool) float64 {
		st := run(t, Config{Name: "t", ROBSize: 512, IQSize: 256, InOrder: inOrder}, chainPairs(), 8000)
		return st.s.IPC()
	}
	ooo, ino := mk(false), mk(true)
	if ooo <= 1.2*ino {
		t.Errorf("out-of-order (%.3f) should clearly beat in-order (%.3f)", ooo, ino)
	}
}

func TestSLIQExtendsWindow(t *testing.T) {
	base := run(t, Config{Name: "b", ROBSize: 64, IQSize: 40}, missStream(), 20000)
	sliq := run(t, Config{Name: "k", ROBSize: 64, IQSize: 72, SLIQSize: 1024}, missStream(), 20000)
	if sliq.s.IPC() < 2*base.s.IPC() {
		t.Errorf("SLIQ (%.3f) should far exceed the plain 64-entry core (%.3f) on independent misses",
			sliq.s.IPC(), base.s.IPC())
	}
}

func TestBranchAccounting(t *testing.T) {
	g := &synth{label: "br", next: func(i uint64) isa.Instr {
		if i%5 == 4 {
			return isa.Instr{PC: 0x1000 + (i%20)*4, Op: isa.Branch,
				Src1: isa.IntReg(0), Taken: true}
		}
		return isa.Instr{PC: 0x1000 + (i%20)*4, Op: isa.IntALU,
			Dest: isa.IntReg(int(2 + i%8)), Src1: isa.IntReg(0), Src2: isa.RegNone}
	}}
	st := run(t, Config{Name: "t", ROBSize: 64}, g, 10000)
	if st.s.Branches == 0 {
		t.Fatal("no branches counted")
	}
	want := uint64(10000 / 5)
	if st.s.Branches < want-10 || st.s.Branches > want+10 {
		t.Errorf("branches = %d, want ~%d", st.s.Branches, want)
	}
	// Always-taken branches are learned quickly: low mispredict rate.
	if st.s.MispredictRate() > 0.1 {
		t.Errorf("mispredict rate %.3f on an always-taken branch", st.s.MispredictRate())
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, R10K64(), missStream(), 15000)
	b := run(t, R10K64(), missStream(), 15000)
	if a.s.Cycles != b.s.Cycles || a.s.Committed != b.s.Committed {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/committed",
			a.s.Cycles, a.s.Committed, b.s.Cycles, b.s.Committed)
	}
}

func TestWarmupExcluded(t *testing.T) {
	p := New(R10K64())
	st := p.Run(missStream(), 5000, 10000)
	if st.Committed != 10000 {
		t.Errorf("measured committed = %d, want 10000", st.Committed)
	}
	if st.Cycles <= 0 {
		t.Error("cycles not positive")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{ROBSize: 64}.WithDefaults()
	if cfg.FetchWidth != 4 || cfg.IssueWidth != 4 || cfg.CommitWidth != 4 {
		t.Error("widths should default to 4")
	}
	if cfg.IQSize != 64 || cfg.LSQSize != 64 {
		t.Error("queue sizes should default to ROB size")
	}
	if cfg.MemPorts != 2 {
		t.Error("memory ports should default to 2")
	}
	if cfg.Mem.MemLatency != 400 {
		t.Error("memory should default to MEM-400")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero ROB should be invalid")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with invalid config should panic")
			}
		}()
		New(Config{})
	}()
}

func TestNamedConfigs(t *testing.T) {
	if c := R10K64(); c.ROBSize != 64 || c.IQSize != 40 {
		t.Error("R10-64 sizes wrong")
	}
	if c := R10K256(); c.ROBSize != 256 || c.IQSize != 160 {
		t.Error("R10-256 sizes wrong")
	}
	if c := R10K768(); c.ROBSize != 768 {
		t.Error("R10-768 size wrong")
	}
	lc := LimitCore(1024, mem.DefaultConfig())
	if lc.ROBSize != 1024 {
		t.Error("limit core size wrong")
	}
	if lc := lc.WithDefaults(); lc.IQSize != 1024 || lc.LSQSize != 1024 {
		t.Error("limit core queues must equal the ROB")
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	// Unpredictable branches fed by L1 hits: frequent short stalls.
	i := 0
	g := &synth{label: "rand", next: func(n uint64) isa.Instr {
		i++
		if n%6 == 5 {
			taken := (n/6)%2 == 0 // alternating: learnable by gshare-class, but start cold
			return isa.Instr{PC: 0x2000, Op: isa.Branch, Src1: isa.IntReg(0), Taken: taken}
		}
		return isa.Instr{PC: 0x1000 + (n%24)*4, Op: isa.IntALU,
			Dest: isa.IntReg(int(2 + n%8)), Src1: isa.IntReg(0), Src2: isa.RegNone}
	}}
	st := run(t, Config{Name: "t", ROBSize: 64, Mem: mem.Table1Configs()[0]}, g, 20000)
	ind := run(t, Config{Name: "t", ROBSize: 64, Mem: mem.Table1Configs()[0]}, independentALU(), 20000)
	if st.s.IPC() >= ind.s.IPC() {
		t.Errorf("mispredicting stream (%.3f) should be slower than branch-free (%.3f)",
			st.s.IPC(), ind.s.IPC())
	}
}
