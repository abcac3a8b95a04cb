package workload

import (
	"fmt"
	"math"
	"testing"

	"dkip/internal/isa"
	"dkip/internal/trace"
)

func TestAllProfilesValidate(t *testing.T) {
	names := Names()
	if len(names) != 26 {
		t.Fatalf("expected 26 benchmarks, got %d", len(names))
	}
	for _, n := range names {
		p, ok := Lookup(n)
		if !ok {
			t.Fatalf("lookup %q failed", n)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		if p.Name != n {
			t.Errorf("profile %q has Name %q", n, p.Name)
		}
	}
}

func TestSuiteSplit(t *testing.T) {
	if got := len(SuiteNames(SpecINT)); got != 12 {
		t.Errorf("SpecINT has %d benchmarks, want 12", got)
	}
	if got := len(SuiteNames(SpecFP)); got != 14 {
		t.Errorf("SpecFP has %d benchmarks, want 14", got)
	}
	if SpecINT.String() != "SpecINT" || SpecFP.String() != "SpecFP" {
		t.Error("suite names wrong")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := New("nonesuch"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestDeterminism(t *testing.T) {
	a := MustNew("mcf")
	b := MustNew("mcf")
	for i := 0; i < 20000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("instruction %d diverged: %v vs %v", i, &x, &y)
		}
	}
}

func TestResetReproduces(t *testing.T) {
	g := MustNew("swim")
	first := trace.Take(g, 5000)
	g.Reset()
	second := trace.Take(g, 5000)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("instruction %d differs after reset", i)
		}
	}
	if g.Emitted() != 5000 {
		t.Errorf("emitted = %d", g.Emitted())
	}
}

func TestInstructionWellFormed(t *testing.T) {
	for _, name := range Names() {
		g := MustNew(name)
		for i := 0; i < 20000; i++ {
			if err := wellFormed(g.Next()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// wellFormed reports what makes in an instruction no engine can take.
func wellFormed(in isa.Instr) error {
	switch {
	case !in.Op.Valid():
		return fmt.Errorf("invalid op %v", in.Op)
	case in.Op.HasDest() && !in.Dest.Valid():
		return fmt.Errorf("%v without destination", in.Op)
	case !in.Op.HasDest() && in.Dest.Valid():
		return fmt.Errorf("%v with destination", in.Op)
	case in.Op.IsMem() && in.Addr == 0:
		return fmt.Errorf("memory op without address")
	case in.Op == isa.Load && !in.Src1.Valid():
		return fmt.Errorf("load without base register")
	case in.PC == 0:
		return fmt.Errorf("zero PC")
	}
	return nil
}

func TestMixMatchesProfile(t *testing.T) {
	for _, name := range []string{"gcc", "swim", "mcf", "mesa"} {
		g := MustNew(name)
		p := g.Profile()
		m := trace.MeasureMix(g, 200000)
		check := func(what string, got, want, tol float64) {
			if got < want-tol || got > want+tol {
				t.Errorf("%s: %s fraction %.3f, profile %.3f", name, what, got, want)
			}
		}
		check("load", m.Frac(isa.Load), p.LoadFrac, 0.03)
		check("store", m.Frac(isa.Store), p.StoreFrac, 0.03)
		check("branch", m.Frac(isa.Branch), p.BranchFrac, 0.04)
	}
}

func TestChaseChainsAreLinked(t *testing.T) {
	g := MustNew("mcf")
	var prevChaseDest isa.Reg = isa.RegNone
	linked, heads := 0, 0
	for i := 0; i < 300000; i++ {
		in := g.Next()
		if in.Op == isa.Load && in.ChainLoad {
			if in.Src1 == prevChaseDest {
				linked++
			} else {
				heads++
			}
			prevChaseDest = in.Dest
		}
	}
	if linked == 0 {
		t.Fatal("no linked chase loads observed")
	}
	if heads == 0 {
		t.Fatal("no chain heads observed — chains never break")
	}
	// mcf's mean chain length is 10: hops should dominate heads.
	if ratio := float64(linked) / float64(heads); ratio < 4 || ratio > 25 {
		t.Errorf("hop/head ratio %.1f inconsistent with chain length 10", ratio)
	}
}

func TestAddressesWithinRegions(t *testing.T) {
	g := MustNew("applu")
	p := g.Profile()
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if !in.Op.IsMem() {
			continue
		}
		inData := in.Addr >= dataBase && in.Addr < dataBase+p.FootprintBytes
		inHot := in.Addr >= hotBase && in.Addr < hotBase+p.HotBytes
		if !inData && !inHot {
			t.Fatalf("address %#x outside data and hot regions", in.Addr)
		}
	}
}

func TestWarmRanges(t *testing.T) {
	g := MustNew("swim")
	r := g.WarmRanges()
	if len(r) != 2 {
		t.Fatalf("expected 2 warm ranges, got %d", len(r))
	}
	if r[0][0] != dataBase || r[0][1] != g.Profile().FootprintBytes {
		t.Error("first range should be the data footprint")
	}
	if r[1][0] != hotBase || r[1][1] != g.Profile().HotBytes {
		t.Error("second range should be the hot region")
	}
}

func TestBranchOutcomeConsistency(t *testing.T) {
	// Loop branches must produce their configured periodic behaviour:
	// over a long window, taken fraction of branches should be high for
	// FP codes (long loops) and moderate for INT codes.
	g := MustNew("applu")
	m := trace.MeasureMix(g, 200000)
	frac := float64(m.TakenBranches) / float64(m.Count[isa.Branch])
	if frac < 0.6 || frac > 0.99 {
		t.Errorf("applu taken-branch fraction %.2f out of expected range", frac)
	}
}

func TestRegularBasesAlwaysReady(t *testing.T) {
	// Stream/stride/hot accesses must use the reserved base register so
	// their addresses never depend on loaded data; only chase loads may
	// use a computed base.
	g := MustNew("swim")
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Op == isa.Load && !in.ChainLoad && in.Src1 != baseReg {
			t.Fatalf("non-chase load with computed base %v", in.Src1)
		}
		if in.Op.HasDest() && in.Dest == baseReg {
			t.Fatalf("instruction defines the reserved base register")
		}
	}
}

// TestProfileValidationErrors checks that NewFromProfile refuses each
// profile with one field out of range, and panics on none, among them
// those whose draws would hang, panic or run to the Geometric cap.
func TestProfileValidationErrors(t *testing.T) {
	good, _ := Lookup("swim")
	nan, inf := math.NaN(), math.Inf(1)
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.LoadFrac = 0.95 },
		func(p *Profile) { p.IntALUW, p.IntMulW, p.FPAddW, p.FPMulW, p.FPDivW = 0, 0, 0, 0, 0 },
		func(p *Profile) { p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0, 0, 0, 0 },
		func(p *Profile) { p.FootprintBytes = 16 },
		func(p *Profile) { p.MeanDepDist = 0.5 },
		func(p *Profile) { p.ChaseChainLen = 0 },
		func(p *Profile) { p.NumBlocks = 1 },
		func(p *Profile) { p.BranchFrac = 0.5 },
		func(p *Profile) { p.BrBias = 0.3 },
		func(p *Profile) { p.MeanDepDist = nan },
		func(p *Profile) { p.MeanDepDist = inf },
		func(p *Profile) { p.LoadFrac = nan },
		func(p *Profile) { p.StoreFrac = -0.1 },
		func(p *Profile) { p.BranchFrac = 0 },
		func(p *Profile) { p.BranchFrac = nan },
		func(p *Profile) { p.BrBias = nan },
		func(p *Profile) { p.BrBias = 1.5 },
		func(p *Profile) { p.IntMulW = -1 },
		func(p *Profile) { p.FPDivW = inf },
		func(p *Profile) { p.PatHot = -0.5 },
		func(p *Profile) { p.PatChase = nan },
		func(p *Profile) { p.BrLoop = -1 },
		func(p *Profile) { p.BrBiased, p.BrLoop, p.BrDataDep = 0, 0, 0 },
		func(p *Profile) { p.LoadFPFrac = 1.5 },
		func(p *Profile) { p.LoadFPFrac = nan },
		func(p *Profile) { p.DataDepNoise = 2 },
		func(p *Profile) { p.DataDepNoise = -0.1 },
		func(p *Profile) { p.LoopPeriodMean = 0 },
		func(p *Profile) { p.LoopPeriodMean = -3 },
	}
	for i, mod := range cases {
		p := good
		mod(&p)
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("case %d: NewFromProfile panicked: %v", i, v)
				}
			}()
			if _, err := NewFromProfile(p); err == nil {
				t.Errorf("case %d: expected validation error", i)
			}
		}()
	}
}

func TestNewFromProfileRejectsInvalid(t *testing.T) {
	p, _ := Lookup("swim")
	p.ChaseChainLen = 0
	if _, err := NewFromProfile(p); err == nil {
		t.Error("invalid profile accepted")
	}
}
