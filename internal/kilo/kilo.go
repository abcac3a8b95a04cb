// Package kilo configures the traditional KILO-instruction processor used as
// the large-window baseline in Figure 9, following Cristal et al.,
// "Out-of-order commit processors" (HPCA 2004) — reference [9] of the paper.
//
// The design virtualizes the reorder buffer: a small pseudo-ROB of 64 entries
// ages instructions; those still waiting on operands after the aging period
// migrate into the Slow Lane Instruction Queue (SLIQ), a large secondary
// out-of-order issue queue of 1024 entries, releasing their pseudo-ROB entry.
// Precise state is maintained by multicheckpointing, so a branch that
// resolves wrong from the slow lane pays a checkpoint-restore penalty rather
// than a rename-stack recovery.
//
// Because the SLIQ is itself issue-capable (a large CAM), pointer-chasing
// integer code can profit from it more than from the D-KIP's FIFO buffers.
// The paper reports that effect in Figure 9, where KILO-1024 beats
// D-KIP-2048 on SpecINT (1.38 against 1.33 IPC), at the cost of the very
// structure (a kilo-entry CAM) the D-KIP exists to avoid. This reproduction
// does not show that ordering: its quick-scale Figure 9 puts D-KIP-2048
// ahead on SpecINT (1.430 against 1.337).
package kilo

import "dkip/internal/ooo"

// Config1024 returns the KILO-1024 baseline of Figure 9: a 64-entry
// pseudo-ROB, 72-entry issue queues, and a 1024-entry out-of-order SLIQ.
func Config1024() ooo.Config {
	return ooo.Config{
		Name:              "KILO-1024",
		ROBSize:           64, // the pseudo-ROB
		IQSize:            72,
		LSQSize:           512,
		SLIQSize:          1024,
		SLIQTimer:         16,
		CheckpointPenalty: 8,
	}
}
