package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := New(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical values of 100", same)
	}
}

func TestSeedReset(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after reseed, value %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestStateResumesStream(t *testing.T) {
	r := New(11)
	for i := 0; i < 5; i++ {
		r.Uint64()
	}
	s := r.State()
	want := make([]uint64, 16)
	for i := range want {
		want[i] = r.Uint64()
	}
	q := New(99)
	if err := q.SetState(s); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := q.Uint64(); got != want[i] {
			t.Fatalf("resumed value %d = %d, want %d", i, got, want[i])
		}
	}
	before := q.State()
	if err := q.SetState([4]uint64{}); err == nil {
		t.Error("all-zero state accepted")
	}
	if q.State() != before {
		t.Error("refused state changed the generator")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(3)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum int
	for i := 0; i < n; i++ {
		v := r.Geometric(0.25)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	if mean := float64(sum) / n; math.Abs(mean-4) > 0.1 {
		t.Errorf("Geometric(0.25) mean = %v, want ~4", mean)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) should panic")
		}
	}()
	New(1).Geometric(0)
}

func TestPickWeights(t *testing.T) {
	r := New(5)
	counts := [3]int{}
	const n = 300000
	for i := 0; i < n; i++ {
		counts[r.Pick([]float64{1, 2, 1})]++
	}
	if p := float64(counts[1]) / n; math.Abs(p-0.5) > 0.01 {
		t.Errorf("middle weight frequency = %v, want ~0.5", p)
	}
	if counts[0] == 0 || counts[2] == 0 {
		t.Error("zero-weight outcomes never picked")
	}
}

func TestPickZeroWeightNeverChosen(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		if r.Pick([]float64{0, 1, 0}) != 1 {
			t.Fatal("zero-weight index chosen")
		}
	}
}

func TestPickPanicsOnNoWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pick with zero total should panic")
		}
	}()
	New(1).Pick([]float64{0, 0})
}

func TestZipfBoundsAndSkew(t *testing.T) {
	r := New(7)
	const n = 64
	z := NewZipf(n, 0.9)
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := z.Sample(r)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[n-1] {
		t.Errorf("Zipf not skewed: first=%d last=%d", counts[0], counts[n-1])
	}
	// Degenerate sizes.
	one, zero := NewZipf(1, 0.9), NewZipf(0, 0.9)
	if one.Sample(r) != 0 || zero.Sample(r) != 0 {
		t.Error("Zipf degenerate sizes should return 0")
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(8)
	err := quick.Check(func(n uint32) bool {
		m := uint64(n)%100000 + 1
		return r.Uint64n(m) < m
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
