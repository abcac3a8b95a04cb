package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The sampled benchmarks' streams are pinned further than TestStreamDigests
// reaches, so a change to the generator's draws that shows only deep in a
// stream still fails here. sampledDigests pins the first million
// instructions of each; sampledStates pins the SHA-256 of SaveState at the
// default sampling plan's interval starts at a 10k+1M scale, which is the
// generator section of every checkpoint a sampled sweep of them stores.
var (
	sampledDigests = map[string]string{
		"crafty": "999d3ab83c7bc6f04de7fc5c3a8486fb7a7f8c218aca4e2252efc59b650581f9",
		"mcf":    "5c5656ca9170fc36f7bcf148fc7d9cd31e7c8c24087adca322f4fa516655c1b0",
		"swim":   "bea8ed2e2ac909eddbba9d368f5a0e616c501e795636dd2501e363210605c433",
	}
	sampledStates = map[string][4]string{
		"crafty": {
			"b913640d566c0e102a50bb3b753f0bda5c6d9645aafd616cfe26ac5eee109cbf",
			"497d73178fe6f548cfdf775a0b7d81d2ef5177ea543790f1bbbb65ad0d9ddaa3",
			"68969ea3baa124418fb0188874b4bd5a2ce5ee21ca9d0d067f35db86fb118249",
			"c85fd2f863e44058bc2e4d20e5138c9876a41bc5f5ad0d9f04ec81ac6d671b89",
		},
		"mcf": {
			"67b2bcf25f9cdf98b58e043a34013889f3b92cd27159ddbac6ab8cafcc28d31a",
			"c3d0219e582bb2b80404005c43dca2e1449a004fd7981c373597f77637172029",
			"40141828c0c5b99ce21cb768075ac025b762d8447a5e5611486fe883fe42e019",
			"2ade6b6be1a9ef2ce0a04d04342937282fe3ed4f85dfaac00ae5ae7d677402f6",
		},
		"swim": {
			"88e8440b9b6411d751f1032bad2a75aa03e225065fbfdaba42404166ce5396ff",
			"bd5ce5b831bfa2120c808cfe94cba11f3c168d56f8b0e06b9e64d6c1a989c3fc",
			"2e64cd78e4361ba8cded0bf872299494703afd0ceb21590d788d53138f9acfe2",
			"d376e334bb562f15241a8382a652fd815695cf3acc0c8a9bac95ab40dd8fadd8",
		},
	}
	sampledStarts = [4]int{10_000, 260_000, 510_000, 760_000}
)

const sampledDigestLen = 1_000_000

// skipLongPins skips the million-instruction pins in -short mode and under
// the race detector, where they would take minutes.
func skipLongPins(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("million-instruction stream pins")
	}
	if raceEnabled {
		t.Skip("generates millions of instructions; race overhead makes it minutes")
	}
}

func TestSampledStreamDigests(t *testing.T) {
	skipLongPins(t)
	for _, name := range []string{"crafty", "mcf", "swim"} {
		got := streamDigest(MustNew(name), sampledDigestLen)
		t.Logf("%q: %q,", name, got)
		if want := sampledDigests[name]; got != want {
			t.Errorf("%s: first %d instructions digest to %s, pinned %s", name, sampledDigestLen, got, want)
		}
	}
}

func TestSampledStatePins(t *testing.T) {
	skipLongPins(t)
	for _, name := range []string{"crafty", "mcf", "swim"} {
		g := MustNew(name)
		var got [4]string
		pos := 0
		for i, start := range sampledStarts {
			for ; pos < start; pos++ {
				g.Next()
			}
			sum := sha256.Sum256(mustState(t, g))
			got[i] = hex.EncodeToString(sum[:])
		}
		t.Logf("%q: {%q, %q, %q, %q},", name, got[0], got[1], got[2], got[3])
		if want := sampledStates[name]; got != want {
			t.Errorf("%s: SaveState at %v hashes to %q, pinned %q", name, sampledStarts, got, want)
		}
	}
}
