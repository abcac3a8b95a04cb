package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/isa"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// The instruction feed runs each call's generator on a producer goroutine.
// These tests pin what must not change with it: which instructions each
// call pulls, the statistics, and how failures reach the caller.

// machine is one architecture the feed tests drive.
type machine struct {
	name, bench string
	new         func() sample.Engine
}

func machines() []machine {
	runahead := ooo.R10K64()
	runahead.RunaheadDepth = 256
	return []machine{
		{"dkip", "swim", func() sample.Engine { return core.New(core.DefaultConfig()) }},
		{"ooo", "mcf", func() sample.Engine { return ooo.New(ooo.R10K64()) }},
		// Runahead scans past what it fetches, so Run pulls more than it
		// commits and the next Run's prefix shrinks accordingly.
		{"ooo-runahead", "mcf", func() sample.Engine { return ooo.New(runahead) }},
		{"inorder", "swim", func() sample.Engine { return inorder.New(inorder.C920()) }},
	}
}

// warmed builds m's machine with the workload's footprint in its caches,
// and a counting generator over the workload.
func (m machine) warmed() (sample.Engine, *counting) {
	b := workload.MustNew(m.bench)
	p := m.new()
	p.Hierarchy().Warm(b.WarmRanges())
	return p, &counting{Generator: b}
}

// counting counts Next calls; when failAt is positive, call number failAt
// (1-based) runs fail, which panics or exits the goroutine.
type counting struct {
	trace.Generator
	calls  uint64
	failAt uint64
	fail   func()
}

func (c *counting) Next() isa.Instr {
	c.calls++
	if c.calls == c.failAt {
		c.fail()
	}
	return c.Generator.Next()
}

// digest hashes the full statistics of a sequence of calls.
func digest(sts ...*pipeline.Stats) string {
	h := sha256.New()
	for _, st := range sts {
		fmt.Fprintf(h, "%+v\n", *st)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestFeedKeepsStreamAndStats runs each architecture through a long Run,
// five continued Runs and a sequence of WarmFunctional calls. The Next-call
// totals and the statistics digests were recorded before the feed existed,
// when the cycle loop called the generator itself.
func TestFeedKeepsStreamAndStats(t *testing.T) {
	want := map[string]struct {
		firstCalls, runCalls uint64
		runDigest            string
		warmCalls            uint64
		warmDigest           string
	}{
		"dkip":         {60497, 110359, "1aa23a5309928580", 60531, "772eefce7f39c778"},
		"ooo":          {60095, 110066, "961987bf8ae65460", 60109, "217ea42990724db9"},
		"ooo-runahead": {60314, 110316, "aebdda4e06b2de9a", 60365, "cb8bf0417abef1e2"},
		"inorder":      {60038, 110050, "30ffdca10fdb5eba", 60068, "4bf61db910feabe3"},
	}
	for _, m := range machines() {
		t.Run(m.name, func(t *testing.T) {
			w := want[m.name]
			p, g := m.warmed()
			sts := []*pipeline.Stats{p.Run(g, 30_000, 30_000)}
			if g.calls != w.firstCalls {
				t.Errorf("Run(30k, 30k) made %d Next calls, want %d", g.calls, w.firstCalls)
			}
			for i := 0; i < 5; i++ {
				sts = append(sts, p.Run(g, 0, 10_000))
			}
			if g.calls != w.runCalls {
				t.Errorf("six Runs made %d Next calls, want %d", g.calls, w.runCalls)
			}
			if d := digest(sts...); d != w.runDigest {
				t.Errorf("Run statistics digest %s, want %s", d, w.runDigest)
			}

			p, g = m.warmed()
			for _, n := range []uint64{0, 37, 50_000} {
				before := g.calls
				p.WarmFunctional(g, n)
				if got := g.calls - before; got != n {
					t.Errorf("WarmFunctional(%d) made %d Next calls", n, got)
				}
			}
			st := p.Run(g, 0, 10_000)
			if g.calls != w.warmCalls {
				t.Errorf("warm then Run made %d Next calls, want %d", g.calls, w.warmCalls)
			}
			if d := digest(st); d != w.warmDigest {
				t.Errorf("statistics after WarmFunctional: digest %s, want %s", d, w.warmDigest)
			}
		})
	}
}

// ending is how a call returned control to its caller.
type ending struct {
	value    any
	panicked bool
	goexit   bool
}

// outcome runs f on a goroutine of its own and reports how it ended. A
// call that neither returns nor panics within the timeout fails the test
// instead of hanging it.
func outcome(t *testing.T, f func()) ending {
	t.Helper()
	done := make(chan ending, 1)
	go func() {
		returned := false
		defer func() {
			r := recover()
			done <- ending{value: r, panicked: !returned && r != nil, goexit: !returned && r == nil}
		}()
		f()
		returned = true
	}()
	select {
	case e := <-done:
		return e
	case <-time.After(time.Minute):
		t.Fatal("call neither returned nor panicked within a minute")
		return ending{}
	}
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFeedReraisesGeneratorPanic makes the generator panic inside the
// producer's first chunk, on the first call of its second chunk, and past
// the producer's prefix, where the engine calls the generator itself. Every
// case must reach Run's caller as a panic with the generator's own value.
func TestFeedReraisesGeneratorPanic(t *testing.T) {
	const warmup, measure = 2000, 2000
	for _, m := range machines() {
		for _, c := range []struct {
			name string
			at   uint64
		}{
			{"first-chunk", 100},
			{"chunk-boundary", 1025},
			{"past-prefix", warmup + measure + 1},
		} {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				p, g := m.warmed()
				value := fmt.Errorf("generator failure at call %d", c.at)
				g.failAt, g.fail = c.at, func() { panic(value) }
				e := outcome(t, func() { p.Run(g, warmup, measure) })
				if !e.panicked || e.value != value {
					t.Fatalf("Run ended with %+v, want a panic with %v", e, value)
				}
				if g.calls != c.at {
					t.Errorf("generator called %d times, want %d (nothing after the panic)", g.calls, c.at)
				}
				settle(t, base)
			})
		}
	}
	t.Run("warm-functional", func(t *testing.T) {
		p, g := machines()[0].warmed()
		value := fmt.Errorf("generator failure")
		g.failAt, g.fail = 3000, func() { panic(value) }
		if e := outcome(t, func() { p.WarmFunctional(g, 5000) }); !e.panicked || e.value != value {
			t.Fatalf("WarmFunctional ended with %+v, want a panic with %v", e, value)
		}
	})
}

// TestFeedGoexitPanics ends the producer goroutine from inside Next with
// runtime.Goexit, as t.Fatal in a test generator would. The instructions
// that goroutine was producing are lost, so Run must panic: neither hang
// waiting for them nor go on without them.
func TestFeedGoexitPanics(t *testing.T) {
	for _, m := range machines() {
		t.Run(m.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			p, g := m.warmed()
			g.failAt, g.fail = 1500, runtime.Goexit
			e := outcome(t, func() { p.Run(g, 2000, 2000) })
			if !e.panicked {
				t.Fatalf("Run ended with %+v, want a panic", e)
			}
			if s, ok := e.value.(string); !ok || s == "" {
				t.Errorf("panic value %v, want the feed's message", e.value)
			}
			settle(t, base)
		})
	}
}

// TestFeedJoinsProducerOnEnginePanic makes the engine deadlock in its first
// cycle (fetch stalled, nothing pending: the AdvanceCycle deadlock case)
// while the producer is still generating a long prefix. Run must stop and
// join the producer before the panic leaves it, and the next call on the
// same engine must start from a clean feed.
func TestFeedJoinsProducerOnEnginePanic(t *testing.T) {
	for _, m := range machines() {
		t.Run(m.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			p, g := m.warmed()
			stall(p)
			e := outcome(t, func() { p.Run(g, 1_000_000, 1_000_000) })
			if !e.panicked {
				t.Fatalf("Run ended with %+v, want the deadlock panic", e)
			}
			settle(t, base)
			// The feed is reusable: a WarmFunctional on the same engine
			// pulls exactly what it asks for.
			before := g.calls
			p.WarmFunctional(g, 3000)
			if got := g.calls - before; got != 3000 {
				t.Errorf("WarmFunctional after the panic made %d Next calls, want 3000", got)
			}
			settle(t, base)
		})
	}
}

// stall leaves p's fetch stalled on a misprediction that will never
// resolve, with nothing else pending.
func stall(p sample.Engine) {
	switch p := p.(type) {
	case *core.Processor:
		p.FetchStalled = true
	case *ooo.Processor:
		p.FetchStalled = true
	case *inorder.Processor:
		p.FetchStalled = true
	}
}
