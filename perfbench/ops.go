package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dkip/internal/ckpt"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/sim"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// opRecord is the outcome of one operation: one run in the sweeps, one
// request in daemon-mixed.
type opRecord struct {
	arch sim.Arch
	rtt  time.Duration
	// committed counts the measured instructions the operation simulated;
	// zero when a cache tier served it.
	committed uint64
	failed    bool
}

// runBatch runs specs on closed-loop workers: each worker takes the next
// spec as soon as its previous run returns, so the round trip of a run is
// its own cost and never time spent queued behind others.
func runBatch(specs []sim.RunSpec, workers int, run func(sim.RunSpec) (*sim.Result, error)) ([]opRecord, []*sim.Result) {
	ops := make([]opRecord, len(specs))
	results := make([]*sim.Result, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				start := time.Now()
				res, err := run(specs[i])
				ops[i] = opRecord{arch: specs[i].Arch, rtt: time.Since(start), failed: err != nil}
				if err == nil && !res.Cached {
					ops[i].committed = res.Stats.Committed
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	return ops, results
}

// ckptKind is the Store blob namespace checkpoints are written under.
const ckptKind = "checkpoints"

// tracedRun simulates spec the way sim.Runner does for a cold spec, calling
// each layer's public entry point itself inside a span: validation and
// content key, the result store (when given), engine construction, cache
// warming, the detailed run, or sample.Run with its checkpoint
// traffic.
func tracedRun(tr *tracer, spec sim.RunSpec, store *sim.Store) (*sim.Result, error) {
	o := tr.beginOp("run", spec)
	defer o.finish()
	o.local.sim.Requested++
	var err error
	o.do("sim.validate", func() { err = spec.Validate() })
	if err != nil {
		return nil, err
	}
	var key string
	o.do("sim.key", func() { key = spec.Key() })
	if store != nil {
		var res *sim.Result
		var ok bool
		o.do("sim.store_get", func() { res, ok = store.Get(key) })
		if ok {
			o.local.sim.DiskHits++
			return res.WithCached(true), nil
		}
	}
	g, err := workload.New(spec.Bench)
	if err != nil {
		return nil, err
	}
	ts := tracedSpec(spec, o)
	res := &sim.Result{
		Key: key, Arch: spec.Arch.String(), Config: spec.ConfigName(),
		Bench: spec.Bench, Warmup: spec.Warmup, Measure: spec.Measure,
	}
	start := time.Now()
	if spec.Sample.Enabled() {
		if res.Stats, res.Sampled, err = tracedSampled(o, spec, ts, g.WarmRanges(), store); err != nil {
			return nil, err
		}
	} else {
		e := o.newEngine(ts)
		o.do("mem.warm", func() { e.Hierarchy().Warm(g.WarmRanges()) })
		res.Stats = e.Run(&tracedGen{Generator: g, h: &o.local.gen}, spec.Warmup, spec.Measure)
	}
	res.Elapsed = time.Since(start)
	o.noteStats(res.Stats)
	o.local.sim.Simulated++
	if store != nil {
		o.do("sim.store_put", func() { err = store.Put(res) })
		if err == nil {
			o.local.sim.DiskWrites++
		}
	}
	return res, nil
}

// tracedSampled runs sample.Run with every engine, generator and
// checkpoint-store call it makes passing through the tracer. Checkpoints
// are keyed by what their state depends on (engine family, workload,
// memory configuration, predictor, stream position), so the out-of-order
// machines of one memory configuration share them, as they do under
// sim.SimulateSampled.
func tracedSampled(o *opTrace, spec, ts sim.RunSpec, warm [][2]uint64, store *sim.Store) (*pipeline.Stats, *sample.Summary, error) {
	cfg := sample.Config{
		Bench:     spec.Bench,
		NewEngine: func() sample.Engine { return o.newEngine(ts) },
		NewGen: func() trace.Generator {
			// The benchmark name was validated before the run started.
			return &tracedGen{Generator: workload.MustNew(spec.Bench), h: &o.local.gen}
		},
		WarmRanges: warm,
		Warmup:     spec.Warmup,
		Measure:    spec.Measure,
		Plan:       spec.SamplePlan(),
	}
	if store != nil {
		family := ckptFamily(spec)
		cfg.Load = func(pos uint64) *ckpt.Checkpoint {
			var data []byte
			var ok bool
			o.do("sim.blob_get", func() { data, ok = store.GetBlob(ckptKind, ckptKey(family, spec.Bench, pos)) })
			if !ok {
				return nil
			}
			var c *ckpt.Checkpoint
			var err error
			o.do("ckpt.decode", func() { c, err = ckpt.Decode(data) })
			if err != nil || c.Pos != pos || c.Bench != spec.Bench {
				return nil
			}
			return c
		}
		cfg.Store = func(c *ckpt.Checkpoint) {
			var data []byte
			o.do("ckpt.encode", func() { data = ckpt.Encode(c) })
			o.local.ckEncodes++
			o.local.ckBytes += uint64(len(data))
			// A failed write is a cache non-event, as in sim.SimulateSampled.
			o.do("sim.blob_put", func() { _ = store.PutBlob(ckptKind, ckptKey(family, spec.Bench, c.Pos), data) })
		}
	}
	var st *pipeline.Stats
	var sum *sample.Summary
	var io sample.IO
	var err error
	o.do("sample.run", func() { st, sum, io, err = sample.Run(cfg) })
	o.local.ckHits += io.Hits
	o.local.ckMisses += io.Misses
	o.local.ckWrites += io.Writes
	o.local.sim.CheckpointHits += io.Hits
	o.local.sim.CheckpointMisses += io.Misses
	o.local.sim.CheckpointWrites += io.Writes
	return st, sum, err
}

// ckptFamily names what a spec's checkpoints depend on apart from the
// workload and position: the D-KIP's confidence estimator, the memory
// configuration and the predictor.
func ckptFamily(spec sim.RunSpec) string {
	var m mem.Config
	var pred string
	fam := "ooo"
	switch spec.Arch {
	case sim.ArchDKIP:
		c := spec.DKIP.WithDefaults()
		m, pred, fam = c.Mem, c.NewPredictor().Name(), "core"
	case sim.ArchOOO:
		c := spec.OOO.WithDefaults()
		m, pred = c.Mem, c.NewPredictor().Name()
	case sim.ArchInorder:
		c := spec.Inorder.WithDefaults()
		m, pred = c.Mem, c.NewPredictor().Name()
	}
	raw, err := json.Marshal(m.WithDefaults())
	if err != nil {
		// mem.Config is plain data; encoding cannot fail.
		panic(err)
	}
	return fmt.Sprintf("%s;%s;%s", fam, pred, raw)
}

func ckptKey(family, bench string, pos uint64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s;%s;%d", family, bench, pos)))
	return hex.EncodeToString(h[:16])
}
