package xrand

// FloorPow exposes Zipf.Sample's multiplication path to the oracles: the
// rank's integer part and true when it settles the rank, false when Sample
// calls math.Pow instead.
func FloorPow(z *Zipf, base float64) (int, bool) { return z.floorPow(base) }

// RankMargin is the relative margin of FloorPow's guard.
const RankMargin = rankMargin
