package mem

import (
	"testing"

	"dkip/internal/xrand"
)

var sinkLatency int

// BenchmarkHierarchyAccess measures one demand access to the default
// hierarchy over a mix of about 80% L1 hits, 15% L2 hits and 5% misses to
// memory: addresses drawn from a 16 KiB, a 256 KiB and a 64 MiB region.
func BenchmarkHierarchyAccess(b *testing.B) {
	r := xrand.New(1)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		var span uint64
		switch x := r.Intn(100); {
		case x < 80:
			span = 16 << 10
		case x < 95:
			span = 256 << 10
		default:
			span = 64 << 20
		}
		addrs[i] = r.Uint64n(span) &^ 7
	}
	h := NewHierarchy(DefaultConfig())
	for _, a := range addrs {
		h.Access(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLatency, _ = h.Access(addrs[i&(len(addrs)-1)])
	}
}
