package pipeline

import (
	"testing"

	"dkip/internal/isa"
	"dkip/internal/xrand"
)

var sinkSeq uint64

// BenchmarkEventQueue measures one Schedule and its share of PopDue over a
// D-KIP-like completion mix: four instructions issue a cycle, 80% finishing
// in 1 to 12 cycles, 15% in 11 (L2 hits) and 5% in 400 (misses to
// memory), so about a hundred completions are pending at a time.
func BenchmarkEventQueue(b *testing.B) {
	r := xrand.New(1)
	lat := make([]int64, 1<<12)
	for i := range lat {
		switch x := r.Intn(100); {
		case x < 80:
			lat[i] = 1 + int64(r.Intn(12))
		case x < 95:
			lat[i] = 11
		default:
			lat[i] = 400
		}
	}
	var q EventQueue
	var cycle int64
	step := func(i int) {
		q.Schedule(cycle+lat[i&(len(lat)-1)], uint64(i))
		if i&3 == 3 {
			cycle++
			for {
				seq, ok := q.PopDue(cycle)
				if !ok {
					break
				}
				sinkSeq = seq
			}
		}
	}
	for i := 0; i < 1<<14; i++ {
		step(i) // reach the steady-state occupancy
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i + 1<<14)
	}
}

// BenchmarkIssueQueue measures one renamed instruction's trip through an
// issue queue of the D-KIP's Cache Processor size (40 entries) over a
// 256-entry window.
//
// In the out-of-order queue, of every four instructions one is ready at
// rename, two are woken three instructions later and one of those has
// migrated out of the queue first (to an LLIB, as the D-KIP's Analyze moves
// it), so its wakeup is stale and Pop skips it; one Pop follows each
// Insert.
//
// In the in-order queue, 16 instructions deep, each instruction's turn at
// the head is first blocked by a busy unit (Pop, then Unpop) and then
// issues.
func BenchmarkIssueQueue(b *testing.B) {
	in := isa.Instr{Op: isa.IntALU}
	b.Run("ooo", func(b *testing.B) {
		w := NewWindow(256)
		q := NewIssueQueue(QInt, 40, false, w)
		step := func(seq uint64) {
			d := w.Alloc(seq, in, 0)
			switch seq & 3 {
			case 0, 3:
				q.Insert(seq, true)
			case 1:
				d.Pending = 1
				q.Insert(seq, false)
			case 2:
				d.Pending = 1
				q.Insert(seq, false)
				q.RemoveWaiting()
				d.Queue = QLLIB
			}
			if old := seq - 3; seq >= 3 && (old&3 == 1 || old&3 == 2) {
				w.Get(old).Pending = 0
				q.Wake(old)
			}
			if s, ok := q.Pop(); ok {
				w.Get(s).Issued = true
			}
		}
		for seq := uint64(0); seq < 1<<10; seq++ {
			step(seq)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(uint64(i) + 1<<10)
		}
	})
	b.Run("inorder", func(b *testing.B) {
		const depth = 16
		w := NewWindow(256)
		q := NewIssueQueue(QInt, 40, true, w)
		for seq := uint64(0); seq < depth; seq++ {
			w.Alloc(seq, in, 0)
			q.Insert(seq, true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq := uint64(i) + depth
			w.Alloc(seq, in, 0)
			q.Insert(seq, true)
			s, _ := q.Pop()
			q.Unpop(s)
			s, _ = q.Pop()
			w.Get(s).Issued = true
		}
	})
}
