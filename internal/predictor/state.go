package predictor

import (
	"encoding/binary"
	"fmt"

	"dkip/internal/binread"
)

// Stateful is implemented by predictors whose trained state can be
// snapshotted and restored, which is what makes them checkpointable (see
// internal/ckpt). The snapshot is a self-describing little-endian byte
// string: it leads with the table geometry so LoadState can refuse a
// snapshot taken from a differently shaped predictor instead of silently
// mistraining.
//
// Snapshots capture architectural training state only — tables and history
// registers — not transient per-prediction memos or accuracy counters, so a
// restored predictor behaves identically from the next Predict/Update pair
// onward.
type Stateful interface {
	SaveState() ([]byte, error)
	LoadState(data []byte) error
}

// SaveState snapshots the perceptron's weights and global history.
func (p *Perceptron) SaveState() ([]byte, error) {
	b := make([]byte, 0, 8+len(p.weights)*2+p.histLen)
	b = binary.LittleEndian.AppendUint32(b, uint32(p.entries()))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.histLen))
	// Weights are int16, row by row: encode each as its 2-byte
	// two's-complement form.
	for _, v := range p.weights {
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	for _, h := range p.history {
		b = append(b, byte(h))
	}
	return b, nil
}

// LoadState restores a snapshot taken by SaveState. The perceptron must have
// the same geometry; the per-prediction memo is invalidated.
func (p *Perceptron) LoadState(data []byte) error {
	r := binread.New(data)
	entries, histLen := r.U32(), r.U32()
	if r.Err() == nil && (int(entries) != p.entries() || int(histLen) != p.histLen) {
		return fmt.Errorf("predictor: perceptron state geometry %d×%d does not match %d×%d",
			entries, histLen, p.entries(), p.histLen)
	}
	raw := r.Bytes(int(entries) * (int(histLen) + 1) * 2)
	hist := r.Bytes(int(histLen))
	if err := r.Done(); err != nil {
		return fmt.Errorf("predictor: perceptron state: %w", err)
	}
	for i := range p.weights {
		p.weights[i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
	}
	for i := range p.history {
		p.history[i] = int8(hist[i])
	}
	p.lastValid = false
	return nil
}

// SaveState snapshots the gshare counters and history register.
func (g *Gshare) SaveState() ([]byte, error) {
	b := make([]byte, 0, 12+len(g.table))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(g.table)))
	b = binary.LittleEndian.AppendUint64(b, g.history)
	b = append(b, g.table...)
	return b, nil
}

// LoadState restores a snapshot taken by SaveState into a same-sized gshare.
func (g *Gshare) LoadState(data []byte) error {
	r := binread.New(data)
	entries := r.U32()
	hist := r.U64()
	if r.Err() == nil && int(entries) != len(g.table) {
		return fmt.Errorf("predictor: gshare state has %d entries, want %d", entries, len(g.table))
	}
	tab := r.Bytes(int(entries))
	if err := r.Done(); err != nil {
		return fmt.Errorf("predictor: gshare state: %w", err)
	}
	copy(g.table, tab)
	g.history = hist & ((1 << g.bits) - 1)
	return nil
}

// SaveState snapshots the bimodal counter table.
func (b *Bimodal) SaveState() ([]byte, error) {
	out := make([]byte, 0, 4+len(b.table))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.table)))
	out = append(out, b.table...)
	return out, nil
}

// LoadState restores a snapshot taken by SaveState into a same-sized bimodal.
func (b *Bimodal) LoadState(data []byte) error {
	r := binread.New(data)
	entries := r.U32()
	if r.Err() == nil && int(entries) != len(b.table) {
		return fmt.Errorf("predictor: bimodal state has %d entries, want %d", entries, len(b.table))
	}
	tab := r.Bytes(int(entries))
	if err := r.Done(); err != nil {
		return fmt.Errorf("predictor: bimodal state: %w", err)
	}
	copy(b.table, tab)
	return nil
}

// SaveState returns an empty snapshot: a static predictor has no trained
// state.
func (s *Static) SaveState() ([]byte, error) { return nil, nil }

// LoadState accepts only the empty snapshot SaveState produces.
func (s *Static) LoadState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("predictor: static predictor state must be empty, got %d bytes", len(data))
	}
	return nil
}

// SaveState delegates to the wrapped predictor; accuracy counters are not
// part of the architectural state.
func (s *Stats) SaveState() ([]byte, error) {
	inner, ok := s.P.(Stateful)
	if !ok {
		return nil, fmt.Errorf("predictor: %s does not support state capture", s.P.Name())
	}
	return inner.SaveState()
}

// LoadState delegates to the wrapped predictor and drops any pending
// prediction memo.
func (s *Stats) LoadState(data []byte) error {
	inner, ok := s.P.(Stateful)
	if !ok {
		return fmt.Errorf("predictor: %s does not support state capture", s.P.Name())
	}
	if err := inner.LoadState(data); err != nil {
		return err
	}
	s.pending = false
	return nil
}

// SaveState snapshots the confidence estimator's counter table.
func (c *Confidence) SaveState() ([]byte, error) {
	out := make([]byte, 0, 4+len(c.table))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.table)))
	out = append(out, c.table...)
	return out, nil
}

// LoadState restores a snapshot taken by SaveState into a same-sized
// estimator.
func (c *Confidence) LoadState(data []byte) error {
	r := binread.New(data)
	entries := r.U32()
	if r.Err() == nil && int(entries) != len(c.table) {
		return fmt.Errorf("predictor: confidence state has %d entries, want %d", entries, len(c.table))
	}
	tab := r.Bytes(int(entries))
	if err := r.Done(); err != nil {
		return fmt.Errorf("predictor: confidence state: %w", err)
	}
	copy(c.table, tab)
	return nil
}
