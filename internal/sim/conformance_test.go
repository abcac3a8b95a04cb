package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/sample"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// Every registered engine must satisfy the same behavioral contract behind
// sample.Engine — one shared table over the registry, so a fourth
// architecture inherits the conformance gate by being registered:
//
//   - functional warming to a stream position, then a detailed run, is
//     deterministic (two identically-prepared engines agree exactly);
//   - a second Run call on one engine measures its own window, after its
//     own warmup;
//   - a checkpoint captured at that position and restored into a fresh
//     engine reproduces the warmed engine's detailed run bit-for-bit (the
//     identity checkpointed sampling and sweep resume are built on);
//   - a checkpoint from a machine with a different predictor is refused;
//   - a cold detailed run trains the predictor and the confidence estimator
//     exactly as functional warming over the instructions it fetched does
//     (the presets have no runahead, which pulls instructions fetch has not
//     predicted yet).
func TestEngineConformance(t *testing.T) {
	presetByArch := map[Arch]string{
		ArchOOO:     "r10-64",
		ArchDKIP:    "dkip",
		ArchInorder: "inorder",
	}
	const bench = "swim"
	const pos, warmup, measure = 6_000, 1_000, 8_000

	for _, a := range Archs() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			preset, ok := presetByArch[a]
			if !ok {
				t.Fatalf("no conformance preset for registered arch %q — extend the table", a)
			}
			spec := MustPresetSpec(preset, bench, warmup, measure)

			// warmed returns a fresh engine of this machine functionally
			// fast-forwarded to stream position pos, with its generator
			// left there.
			warmed := func() (sample.Engine, trace.Generator) {
				e := spec.NewEngine()
				g := workload.MustNew(bench)
				e.Hierarchy().Warm(g.WarmRanges())
				e.WarmFunctional(g, pos)
				return e, g
			}

			// Determinism: two identically-prepared engines agree exactly.
			e1, g1 := warmed()
			ref := e1.Run(g1, warmup, measure)
			e2, g2 := warmed()
			again := e2.Run(g2, warmup, measure)
			if !reflect.DeepEqual(ref, again) {
				t.Fatalf("detailed run not deterministic:\nfirst: %s\nsecond: %s",
					statsJSON(t, ref), statsJSON(t, again))
			}

			// Every Run call opens its own measurement window: a second
			// call with warmup on the same engine reports only its own
			// measured instructions.
			if st := e1.Run(g1, warmup, measure); st.Committed != measure {
				t.Errorf("second Run(%d, %d) on one engine: committed %d, want %d", warmup, measure, st.Committed, measure)
			}

			// Checkpoint/resume identity: snapshot a warmed donor at pos,
			// restore into a fresh engine, position a fresh generator by
			// replay, and the detailed run must reproduce the reference
			// bit-for-bit.
			donor, _ := warmed()
			ck, err := donor.CaptureArch(bench, pos)
			if err != nil {
				t.Fatalf("CaptureArch: %v", err)
			}
			if ck.Pos != pos || ck.Bench != bench {
				t.Fatalf("checkpoint identity = %s@%d, want %s@%d", ck.Bench, ck.Pos, bench, pos)
			}
			resumed := spec.NewEngine()
			if err := resumed.RestoreArch(ck); err != nil {
				t.Fatalf("RestoreArch: %v", err)
			}
			g3 := workload.MustNew(bench)
			for i := uint64(0); i < pos; i++ {
				g3.Next()
			}
			res := resumed.Run(g3, warmup, measure)
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("resume from checkpoint diverged from the warmed run:\nwarmed: %s\nresumed: %s",
					statsJSON(t, ref), statsJSON(t, res))
			}

			// A checkpoint carrying a different predictor must be refused,
			// not silently loaded into mismatched structures.
			alien := *ck
			alien.PredName = "no-such-predictor"
			if err := spec.NewEngine().RestoreArch(&alien); err == nil {
				t.Error("RestoreArch accepted a checkpoint with a mismatched predictor")
			}

			// Fetch-path training: fetch predicts and trains on every
			// instruction it fetches, in stream order, so the architectural
			// predictor and confidence state after a cold run equals that
			// after functionally warming the same prefix.
			for _, b := range []string{"gcc", "swim", "mcf"} {
				const n = 20_000
				s := MustPresetSpec(preset, b, 0, n)
				cold := s.NewEngine()
				st := cold.Run(workload.MustNew(b), 0, n)
				warm := s.NewEngine()
				warm.WarmFunctional(workload.MustNew(b), st.Fetched)
				got, err := cold.CaptureArch(b, st.Fetched)
				if err != nil {
					t.Fatalf("CaptureArch: %v", err)
				}
				want, err := warm.CaptureArch(b, st.Fetched)
				if err != nil {
					t.Fatalf("CaptureArch: %v", err)
				}
				if !bytes.Equal(got.Pred, want.Pred) || !bytes.Equal(got.Conf, want.Conf) {
					t.Errorf("%s: predictor or confidence state after a %d-instruction run differs from functional warming over its %d fetched instructions (pred equal %v, conf equal %v)",
						b, n, st.Fetched, bytes.Equal(got.Pred, want.Pred), bytes.Equal(got.Conf, want.Conf))
				}
			}
		})
	}
}

func statsJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunStaysWithinLookahead is the conformance row behind a sampled run's
// tape, which keeps a detailed interval's read-ahead only up to the
// engine's Lookahead: on every preset, the limit core and a runahead
// configuration, one Run — from a cold engine, and from a restored
// checkpoint as a sampled interval starts — pulls at most Lookahead
// instructions past its warmup+measure. (Run also panics past the bound.)
func TestRunStaysWithinLookahead(t *testing.T) {
	specs := map[string]RunSpec{"limit-2048": LimitSpec(2048, mem.DefaultConfig(), "", 0, 0)}
	for _, name := range PresetNames() {
		specs[name] = MustPresetSpec(name, "", 0, 0)
	}
	ra := ooo.R10K64()
	ra.Name, ra.RunaheadDepth = "R10-64+runahead", 256
	specs["r10-64+runahead"] = OOOSpec("", ra, 0, 0)
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	const pos = 20_000
	for _, name := range names {
		spec := specs[name]
		var most uint64
		for _, bench := range []string{"gcc", "mcf", "swim"} {
			donor := spec.NewEngine()
			b := workload.MustNew(bench)
			donor.Hierarchy().Warm(b.WarmRanges())
			donor.WarmFunctional(b, pos)
			ck, err := donor.CaptureArch(bench, pos)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range [][2]uint64{{0, 5_000}, {2_000, 20_000}} {
				for _, restored := range []bool{false, true} {
					e := spec.NewEngine()
					b := workload.MustNew(bench)
					if restored {
						if err := e.RestoreArch(ck); err != nil {
							t.Fatal(err)
						}
						for i := 0; i < pos; i++ {
							b.Next()
						}
					} else {
						e.Hierarchy().Warm(b.WarmRanges())
					}
					var calls uint64
					e.Run(&countedGen{Benchmark: b, calls: &calls}, w[0], w[1])
					over := calls - (w[0] + w[1])
					if over > e.Lookahead() {
						t.Errorf("%s on %s, %d+%d (restored %v): pulled %d past the target, over the Lookahead of %d",
							name, bench, w[0], w[1], restored, over, e.Lookahead())
					}
					most = max(most, over)
				}
			}
		}
		t.Logf("%s: pulled at most %d past the target; Lookahead %d", name, most, spec.NewEngine().Lookahead())
	}
}
