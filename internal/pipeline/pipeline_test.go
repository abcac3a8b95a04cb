package pipeline

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"dkip/internal/isa"
)

func TestWindowAllocGet(t *testing.T) {
	w := NewWindow(100) // rounds up to 128
	if w.Capacity() < 100 {
		t.Fatalf("capacity %d < 100", w.Capacity())
	}
	in := isa.Instr{Op: isa.IntALU, Dest: isa.IntReg(1), Src1: isa.IntReg(2)}
	e := w.Alloc(5, in, 1)
	if e.Seq != 5 || e.In.Op != isa.IntALU {
		t.Error("alloc did not initialize entry")
	}
	if e.FetchCycle != -1 || e.IssueCycle != -1 {
		t.Error("timing fields should start at -1")
	}
	if e.Prod1 != NoProducer || e.Prod2 != NoProducer {
		t.Error("producers should start empty")
	}
	if e.LLRFBank != -1 {
		t.Error("LLRF fields should start empty")
	}
	if w.Get(5) != e {
		t.Error("Get returned a different entry")
	}
}

func TestWindowReusesConsumerCapacity(t *testing.T) {
	w := NewWindow(64)
	e := w.Alloc(1, isa.Instr{}, 1)
	e.Consumers = append(e.Consumers, 2, 3, 4)
	e2 := w.Alloc(1+uint64(w.Capacity()), isa.Instr{}, 1)
	if len(e2.Consumers) != 0 {
		t.Error("consumers not cleared on reuse")
	}
}

func TestWindowOverflowPanics(t *testing.T) {
	w := NewWindow(64)
	defer func() {
		if recover() == nil {
			t.Error("overflow should panic")
		}
	}()
	w.Alloc(0, isa.Instr{}, w.Capacity())
}

func TestScoreboard(t *testing.T) {
	sb := NewScoreboard()
	r := isa.IntReg(3)
	if _, busy := sb.Lookup(r); busy {
		t.Error("fresh register should be ready")
	}
	sb.Define(r, 10)
	if prod, busy := sb.Lookup(r); !busy || prod != 10 {
		t.Error("lookup after define wrong")
	}
	sb.Complete(r, 10)
	if _, busy := sb.Lookup(r); busy {
		t.Error("completion should clear")
	}
}

func TestScoreboardSupersede(t *testing.T) {
	sb := NewScoreboard()
	r := isa.IntReg(3)
	sb.Define(r, 10)
	sb.Define(r, 20) // younger writer supersedes
	sb.Complete(r, 10)
	if prod, busy := sb.Lookup(r); !busy || prod != 20 {
		t.Error("old completion must not clear younger definition")
	}
	sb.Complete(r, 20)
	if _, busy := sb.Lookup(r); busy {
		t.Error("younger completion should clear")
	}
}

func TestScoreboardIgnoresInvalidReg(t *testing.T) {
	sb := NewScoreboard()
	sb.Define(isa.RegNone, 1)
	if _, busy := sb.Lookup(isa.RegNone); busy {
		t.Error("RegNone should never be busy")
	}
	if sb.PendingCount() != 0 {
		t.Error("pending count should be 0")
	}
}

func mkReady(w *Window, seq uint64) {
	e := w.Alloc(seq, isa.Instr{Op: isa.IntALU, Dest: isa.IntReg(1)}, 1)
	e.Pending = 0
}

func TestIssueQueueOldestFirst(t *testing.T) {
	w := NewWindow(64)
	q := NewIssueQueue(QInt, 8, false, w)
	for _, seq := range []uint64{5, 2, 9, 1} {
		mkReady(w, seq)
		q.Insert(seq, true)
	}
	want := []uint64{1, 2, 5, 9}
	for _, x := range want {
		got, ok := q.Pop()
		if !ok || got != x {
			t.Fatalf("pop = %d,%v want %d", got, ok, x)
		}
		w.Get(got).Issued = true
	}
	if _, ok := q.Pop(); ok {
		t.Error("empty queue popped")
	}
}

func TestIssueQueueWakeup(t *testing.T) {
	w := NewWindow(64)
	q := NewIssueQueue(QInt, 8, false, w)
	e := w.Alloc(1, isa.Instr{Op: isa.IntALU}, 1)
	e.Pending = 1
	q.Insert(1, false)
	if _, ok := q.Pop(); ok {
		t.Error("non-ready instruction popped")
	}
	e.Pending = 0
	q.Wake(1)
	if got, ok := q.Pop(); !ok || got != 1 {
		t.Error("woken instruction not popped")
	}
}

func TestIssueQueueInOrderHeadBlocking(t *testing.T) {
	w := NewWindow(64)
	q := NewIssueQueue(QInt, 8, true, w)
	head := w.Alloc(1, isa.Instr{Op: isa.IntALU}, 1)
	head.Pending = 1
	q.Insert(1, false)
	mkReady(w, 2)
	q.Insert(2, true)
	if _, ok := q.Pop(); ok {
		t.Error("in-order queue issued past a blocked head")
	}
	head.Pending = 0
	if got, ok := q.Pop(); !ok || got != 1 {
		t.Error("head not issued once ready")
	}
	if got, ok := q.Pop(); !ok || got != 2 {
		t.Error("second entry not issued after head")
	}
}

func TestIssueQueueUnpop(t *testing.T) {
	for _, inOrder := range []bool{false, true} {
		w := NewWindow(64)
		q := NewIssueQueue(QInt, 8, inOrder, w)
		mkReady(w, 1)
		mkReady(w, 2)
		q.Insert(1, true)
		q.Insert(2, true)
		seq, _ := q.Pop()
		q.Unpop(seq)
		if got, ok := q.Pop(); !ok || got != seq {
			t.Errorf("inOrder=%v: unpop did not restore order: got %d want %d", inOrder, got, seq)
		}
	}
}

func TestIssueQueueCapacity(t *testing.T) {
	w := NewWindow(64)
	q := NewIssueQueue(QInt, 2, false, w)
	mkReady(w, 1)
	mkReady(w, 2)
	q.Insert(1, true)
	q.Insert(2, true)
	if !q.Full() {
		t.Error("queue should be full")
	}
	defer func() {
		if recover() == nil {
			t.Error("insert into full queue should panic")
		}
	}()
	q.Insert(3, true)
}

func TestIssueQueueMigrationStaleSkip(t *testing.T) {
	w := NewWindow(64)
	q := NewIssueQueue(QInt, 8, false, w)
	sliq := NewIssueQueue(QSLIQ, 8, false, w)
	e := w.Alloc(1, isa.Instr{Op: isa.IntALU}, 1)
	e.Pending = 1
	q.Insert(1, false)
	// Migrate to the SLIQ: release capacity, re-stamp.
	q.RemoveWaiting()
	sliq.Insert(1, false)
	if q.Len() != 0 {
		t.Errorf("queue len %d after migration", q.Len())
	}
	e.Pending = 0
	q.Wake(1) // stale wakeup in the old queue must be ignored
	if _, ok := q.Pop(); ok {
		t.Error("old queue popped a migrated instruction")
	}
	sliq.Wake(1)
	if got, ok := sliq.Pop(); !ok || got != 1 {
		t.Error("SLIQ did not pop the migrated instruction")
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var ev EventQueue
	ev.Schedule(10, 3)
	ev.Schedule(5, 1)
	ev.Schedule(10, 2)
	if c, ok := ev.NextCycle(); !ok || c != 5 {
		t.Fatalf("next cycle %d", c)
	}
	if _, ok := ev.PopDue(4); ok {
		t.Error("popped before due")
	}
	if seq, ok := ev.PopDue(5); !ok || seq != 1 {
		t.Error("first event wrong")
	}
	// Same-cycle events pop in sequence order.
	if seq, ok := ev.PopDue(10); !ok || seq != 2 {
		t.Error("tie-break by seq failed")
	}
	if seq, ok := ev.PopDue(10); !ok || seq != 3 {
		t.Error("second tie event wrong")
	}
	if ev.Len() != 0 {
		t.Error("queue not drained")
	}
}

func TestEventQueueProperty(t *testing.T) {
	// Events always pop in nondecreasing cycle order.
	err := quick.Check(func(cycles []uint16) bool {
		var ev EventQueue
		for i, c := range cycles {
			ev.Schedule(int64(c), uint64(i))
		}
		last := int64(-1)
		for range cycles {
			c, _ := ev.NextCycle()
			if c < last {
				return false
			}
			last = c
			ev.PopDue(c)
		}
		return ev.Len() == 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestFUPoolLimits(t *testing.T) {
	fu := NewFUPool(FUConfig{ALU: 2, IntMul: 1, FPAdd: 1, FPMulDiv: 1})
	fu.NewCycle(0)
	if !fu.TryIssue(isa.IntALU) || !fu.TryIssue(isa.Load) {
		t.Error("two ALU-class issues should fit")
	}
	if fu.TryIssue(isa.Branch) {
		t.Error("third ALU-class issue should fail")
	}
	fu.NewCycle(1)
	if !fu.TryIssue(isa.IntALU) {
		t.Error("new cycle should reset usage")
	}
	if !fu.TryIssue(isa.IntMul) || fu.TryIssue(isa.IntMul) {
		t.Error("IntMul limit wrong")
	}
}

func TestFUPoolDivUnpipelined(t *testing.T) {
	fu := NewFUPool(FUConfig{ALU: 1, IntMul: 1, FPAdd: 1, FPMulDiv: 1})
	fu.NewCycle(0)
	if !fu.TryIssue(isa.FPDiv) {
		t.Fatal("divide should issue")
	}
	// The shared unit is busy for the divide latency.
	for c := int64(1); c < int64(isa.FPDiv.Latency()); c++ {
		fu.NewCycle(c)
		if fu.TryIssue(isa.FPMul) {
			t.Fatalf("multiply issued at cycle %d while divider busy", c)
		}
		if fu.TryIssue(isa.FPDiv) {
			t.Fatalf("second divide issued at cycle %d", c)
		}
	}
	fu.NewCycle(int64(isa.FPDiv.Latency()))
	if !fu.TryIssue(isa.FPMul) {
		t.Error("multiply should issue after divide completes")
	}
}

func TestFUPoolMulPipelined(t *testing.T) {
	fu := NewFUPool(DefaultFUConfig())
	fu.NewCycle(0)
	if !fu.TryIssue(isa.FPMul) {
		t.Fatal("first multiply")
	}
	fu.NewCycle(1)
	if !fu.TryIssue(isa.FPMul) {
		t.Error("pipelined multiplier should accept one per cycle")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(410)
	h.Observe(810)
	h.Observe(5000) // overflow bucket
	h.Observe(-3)   // clamped to 0
	if h.Total != 5 {
		t.Fatalf("total %d", h.Total)
	}
	if h.FracRange(0, 100) != 0.4 { // 10 and clamped -3
		t.Errorf("frac[0,100) = %v", h.FracRange(0, 100))
	}
	if h.FracRange(400, 500) != 0.2 {
		t.Errorf("frac[400,500) = %v", h.FracRange(400, 500))
	}
	if h.Buckets[len(h.Buckets)-1] != 1 {
		t.Error("overflow bucket not used")
	}
	if h.String() == "" {
		t.Error("histogram string empty")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := &Stats{Cycles: 100, Committed: 250, Branches: 10, Mispredicts: 2}
	if s.IPC() != 2.5 {
		t.Errorf("IPC %v", s.IPC())
	}
	if s.MispredictRate() != 0.2 {
		t.Errorf("mispredict rate %v", s.MispredictRate())
	}
	s.LoadLevel = [3]uint64{50, 25, 25}
	if s.MemoryLoadFrac() != 0.25 {
		t.Errorf("memory frac %v", s.MemoryLoadFrac())
	}
	s.CPCommitted, s.MPCommitted = 75, 25
	if s.CPFraction() != 0.75 {
		t.Errorf("CP fraction %v", s.CPFraction())
	}
	if s.String() == "" {
		t.Error("stats string empty")
	}
	var zero Stats
	if zero.IPC() != 0 || zero.MispredictRate() != 0 || zero.MemoryLoadFrac() != 0 || zero.CPFraction() != 0 {
		t.Error("zero stats should yield zero ratios")
	}
}

func TestIsFPClass(t *testing.T) {
	cases := []struct {
		in   isa.Instr
		want bool
	}{
		{isa.Instr{Op: isa.FPAdd}, true},
		{isa.Instr{Op: isa.FPMul}, true},
		{isa.Instr{Op: isa.IntALU}, false},
		{isa.Instr{Op: isa.Load, Dest: isa.FPReg(1)}, true},
		{isa.Instr{Op: isa.Load, Dest: isa.IntReg(1)}, false},
		{isa.Instr{Op: isa.Store}, false},
	}
	for _, c := range cases {
		d := DynInst{In: c.in}
		if d.IsFPClass() != c.want {
			t.Errorf("IsFPClass(%v) = %v", c.in.Op, d.IsFPClass())
		}
	}
}

// leaf is one integer or bool field of a struct, an array element
// included, with its path and the top-level field it sits under.
type leaf struct {
	path, top string
	v         reflect.Value
}

// leaves walks the struct p points to and returns its leaves in declaration
// order. A slice leaf is returned whole; a kind the walk does not know
// fails the test, so a new field's type cannot slip past it.
func leaves(t *testing.T, p any) []leaf {
	t.Helper()
	var out []leaf
	var walk func(v reflect.Value, path, top string)
	walk = func(v reflect.Value, path, top string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if top == "" {
					walk(v.Field(i), name, name)
				} else {
					walk(v.Field(i), path+"."+name, top)
				}
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), top)
			}
		case reflect.Bool, reflect.Slice,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if !v.CanSet() {
				t.Fatalf("%s cannot be set through reflection", path)
			}
			out = append(out, leaf{path, top, v})
		default:
			t.Fatalf("%s has kind %v, which the walk does not set", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(p).Elem(), "", "")
	return out
}

// setInt sets an integer leaf to n.
func setInt(v reflect.Value, n uint64) {
	if v.CanInt() {
		v.SetInt(int64(n))
	} else {
		v.SetUint(n)
	}
}

// TestDynInstResetClearsEveryField dirties every field of a window entry
// and resets it: the entry must equal a fresh one reset with the same
// instruction, apart from the Consumers capacity, which it keeps.
func TestDynInstResetClearsEveryField(t *testing.T) {
	for _, in := range []isa.Instr{
		{PC: 0x40, Op: isa.Load, Dest: isa.IntReg(3), Src1: isa.IntReg(4), Addr: 0x1000, ChainLoad: true},
		{PC: 0x44, Op: isa.Store, Dest: isa.IntReg(5), Src1: isa.IntReg(6), Src2: isa.IntReg(7)},
	} {
		var used DynInst
		for _, l := range leaves(t, &used) {
			switch l.v.Kind() {
			case reflect.Bool:
				l.v.SetBool(true)
			case reflect.Slice:
				l.v.Set(reflect.ValueOf([]uint64{1, 2, 3}))
			default:
				setInt(l.v, 5)
			}
		}
		capacity := cap(used.Consumers)
		used.reset(9, in)
		var fresh DynInst
		fresh.reset(9, in)
		if len(used.Consumers) != 0 || cap(used.Consumers) != capacity {
			t.Errorf("%v: reset left Consumers at len %d cap %d, want len 0 cap %d", in.Op, len(used.Consumers), cap(used.Consumers), capacity)
		}
		used.Consumers, fresh.Consumers = nil, nil
		if !reflect.DeepEqual(used, fresh) {
			t.Errorf("%v: a reset dirty entry differs from a reset fresh one:\ndirty: %+v\nfresh: %+v", in.Op, used, fresh)
		}
	}
}

// TestStatsAddFoldsEveryField gives every integer leaf of two Stats a
// distinct value, the histogram's and the arrays' included, and checks
// that Add sums each counter and takes the larger high-water mark, with
// either operand holding the larger values. A field Add leaves out fails.
func TestStatsAddFoldsEveryField(t *testing.T) {
	highWater := map[string]bool{"MaxLLIBInstrs": true, "MaxLLIBRegs": true}
	for _, scale := range [][2]uint64{{1, 1000}, {1000, 1}} {
		var s, o Stats
		ls, lo := leaves(t, &s), leaves(t, &o)
		for i := range ls {
			setInt(ls[i].v, scale[0]*uint64(i+1))
			setInt(lo[i].v, scale[1]*uint64(i+1))
		}
		s.Add(&o)
		for i, l := range ls {
			want := 1001 * uint64(i+1)
			if highWater[l.top] {
				want = 1000 * uint64(i+1)
			}
			var got uint64
			if l.v.CanInt() {
				got = uint64(l.v.Int())
			} else {
				got = l.v.Uint()
			}
			if got != want {
				t.Errorf("scales %v: %s is %d after Add, want %d", scale, l.path, got, want)
			}
		}
	}
}
