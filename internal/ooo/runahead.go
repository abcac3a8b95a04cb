package ooo

import (
	"dkip/internal/isa"
	"dkip/internal/trace"
)

// Runahead execution (Dundas & Mudge [23]; Mutlu, Stark, Wilkerson & Patt
// [24]) is the paper's related-work alternative to large instruction
// windows: when an off-chip miss blocks the head of a small ROB, the
// processor checkpoints, pseudo-retires the miss, and keeps executing
// speculatively — not to commit results, but to turn the loads it encounters
// into prefetches. When the original miss returns, everything speculative is
// squashed and fetch restarts from the checkpoint with warmer caches.
//
// This model captures runahead's architectural effect in a trace-driven
// setting: while the ROB is blocked by a memory-level load at its head, the
// front end scans ahead in the instruction stream (up to Config.
// RunaheadDepth instructions) and issues prefetches for the loads it finds.
// Pointer-chasing loads (whose address depends on the very data being
// missed) cannot be prefetched — the fundamental limit of runahead that the
// KILO-instruction literature points out, reproduced here via the trace's
// ChainLoad marker. Scanned instructions stay in the engine's pulled-ahead
// buffer, which fetch drains before the generator, so the architectural
// stream is unchanged.
//
// Enable it with Config.RunaheadDepth > 0 on any ooo configuration; the
// ablation experiment "ablation-runahead" compares R10-64, R10-64+runahead
// and the D-KIP.

// runaheadState tracks runahead episodes. The scanned instructions wait for
// fetch in the engine's pulled-ahead buffer (engine.Engine.PullAhead).
type runaheadState struct {
	lastSeq    uint64 // the blocking load already scanned for (one episode per miss)
	episodes   uint64
	prefetches uint64
}

// maybeRunahead triggers one runahead episode if the commit head is blocked
// by an outstanding memory-level load. It scans ahead in the stream,
// prefetching every regular load; the scanned instructions stay pulled
// ahead for ordinary execution afterwards.
func (p *Processor) maybeRunahead(g trace.Generator) {
	if p.cfg.RunaheadDepth <= 0 || p.commitSeq >= p.RenameSeq {
		return
	}
	head := p.Win.Get(p.commitSeq)
	if head.Done || head.In.Op != isa.Load || !head.Issued {
		return
	}
	if head.MemLatency < p.cfg.Mem.MemLatency || p.cfg.Mem.MemLatency == 0 {
		return // only off-chip misses trigger runahead
	}
	ra := &p.ra
	if ra.lastSeq == head.Seq {
		return // one episode per blocking miss
	}
	ra.lastSeq = head.Seq
	ra.episodes++

	// Scan ahead. Instructions already pulled ahead (by a previous
	// episode) and not yet fetched are re-scanned first.
	scanned := 0
	for _, in := range p.PulledAhead() {
		if scanned == p.cfg.RunaheadDepth {
			break
		}
		p.runaheadPrefetch(in)
		scanned++
	}
	for ; scanned < p.cfg.RunaheadDepth; scanned++ {
		p.runaheadPrefetch(p.PullAhead(g))
	}
}

// runaheadPrefetch issues the prefetch a runahead pass would generate for
// one scanned instruction. Chain loads are invalid in runahead mode: their
// address derives from the missing data.
func (p *Processor) runaheadPrefetch(in isa.Instr) {
	if in.Op != isa.Load || in.ChainLoad {
		return
	}
	p.Hier.Access(in.Addr)
	p.ra.prefetches++
}

// RunaheadEpisodes reports how many runahead episodes were triggered.
func (p *Processor) RunaheadEpisodes() uint64 { return p.ra.episodes }

// RunaheadPrefetches reports how many prefetches runahead issued.
func (p *Processor) RunaheadPrefetches() uint64 { return p.ra.prefetches }
