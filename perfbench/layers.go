package main

import (
	"runtime"
	"runtime/metrics"
	"sort"

	"dkip/internal/pipeline"
	"dkip/internal/sim"
)

// archObs gathers one architecture's engine observations in traced runs.
type archObs struct {
	// spec is one of the architecture's specs, for the construction probe.
	spec        sim.RunSpec
	runs        int
	runNs       int64  // engine.run span time
	instrs      uint64 // warmup+measure instructions the runs simulated
	cycles      int64  // simulated cycles, warmup included
	genInRun    uint64 // generator calls made inside engine.run
	predInRun   uint64 // predictor calls made inside engine.run
	constructs  int
	constructNs int64
	committed   uint64 // measured instructions of the results
	measCycles  int64  // measured cycles of the results
}

func (a *archObs) add(o *archObs) {
	a.runs += o.runs
	a.runNs += o.runNs
	a.instrs += o.instrs
	a.cycles += o.cycles
	a.genInRun += o.genInRun
	a.predInRun += o.predInRun
	a.constructs += o.constructs
	a.constructNs += o.constructNs
	a.committed += o.committed
	a.measCycles += o.measCycles
}

// observations are the exact counts of a traced run, read from the public
// fields of pipeline.Stats, mem.Hierarchy, sample.IO and sim.Metrics or
// counted at the calls the benchmark makes.
type observations struct {
	arch map[sim.Arch]*archObs

	gen, pred hot

	memCount [3]uint64

	functionalInstrs uint64
	functionalNs     int64
	genInFunctional  uint64

	stallROB, stallIQ, stallLSQ int64
	committed                   uint64
	cpCommitted                 uint64
	llibFull                    int64
	recoveries                  uint64
	branches, mispredicts       uint64

	ckHits, ckMisses, ckWrites uint64
	ckEncodes, ckBytes         uint64

	sim sim.Metrics

	responses, responseBytes uint64
}

func (o *observations) merge(x *observations) {
	if o.arch == nil {
		o.arch = make(map[sim.Arch]*archObs)
	}
	for a, v := range x.arch {
		if o.arch[a] == nil {
			o.arch[a] = &archObs{spec: v.spec}
		}
		o.arch[a].add(v)
	}
	o.gen.add(x.gen)
	o.pred.add(x.pred)
	for i := range o.memCount {
		o.memCount[i] += x.memCount[i]
	}
	o.functionalInstrs += x.functionalInstrs
	o.functionalNs += x.functionalNs
	o.genInFunctional += x.genInFunctional
	o.stallROB += x.stallROB
	o.stallIQ += x.stallIQ
	o.stallLSQ += x.stallLSQ
	o.committed += x.committed
	o.cpCommitted += x.cpCommitted
	o.llibFull += x.llibFull
	o.recoveries += x.recoveries
	o.branches += x.branches
	o.mispredicts += x.mispredicts
	o.ckHits += x.ckHits
	o.ckMisses += x.ckMisses
	o.ckWrites += x.ckWrites
	o.ckEncodes += x.ckEncodes
	o.ckBytes += x.ckBytes
	o.sim = o.sim.Plus(x.sim)
	o.responses += x.responses
	o.responseBytes += x.responseBytes
}

// noteStats folds a simulated record's stats into the operation's counts.
func (o *opTrace) noteStats(st *pipeline.Stats) {
	l := &o.local
	o.arch.committed += st.Committed
	o.arch.measCycles += st.Cycles
	l.committed += st.Committed
	l.stallROB += st.StallROBFull
	l.stallIQ += st.StallIQFull
	l.stallLSQ += st.StallLSQFull
	// The D-KIP's own counters; the out-of-order model also counts its
	// SLIQ recoveries in Recoveries, which are no core metric.
	if o.arch.spec.Arch == sim.ArchDKIP {
		l.cpCommitted += st.CPCommitted
		l.llibFull += st.LLIBFullStalls
		l.recoveries += st.Recoveries
	}
	l.branches += st.Branches
	l.mispredicts += st.Mispredicts
}

// runtimeSample is a snapshot of the Go runtime's counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// constructKB measures the heap bytes one engine construction allocates,
// constructing the spec's machine n times on a quiet process.
func constructKB(spec sim.RunSpec, n int) float64 {
	runtime.GC()
	before := readRuntime().allocBytes
	for i := 0; i < n; i++ {
		_ = spec.NewEngine()
	}
	return float64(readRuntime().allocBytes-before) / float64(n) / 1024
}

// spanStats aggregates spans by name.
type spanStats struct {
	count  int
	total  int64
	self   int64
	values []float64 // durations in ns, for medians
}

func aggregateSpans(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanStats{}
			out[s.Name] = a
		}
		d := s.End - s.Start
		a.count++
		a.total += d
		a.self += self[s.ID]
		a.values = append(a.values, float64(d))
	}
	return out
}

func (a *spanStats) meanUs() float64 {
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count) / 1e3
}

// childTotal sums the durations of spans named child whose parent is named
// parent.
func childTotal(spans []span, child, parent string) int64 {
	names := make(map[int]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	var total int64
	for _, s := range spans {
		if s.Name == child && names[s.Parent] == parent {
			total += s.End - s.Start
		}
	}
	return total
}

// selfByName returns the self time of every span name, largest first.
func selfByName(agg map[string]*spanStats) []string {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if agg[names[i]].self != agg[names[j]].self {
			return agg[names[i]].self > agg[names[j]].self
		}
		return names[i] < names[j]
	})
	return names
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues computes every per-layer metric the traced run can
// observe, except the Runner counts (see runnerValues). Metrics of layers
// the workload does not reach are absent. Counts and the runtime metrics
// are per pass: the tracer's observations cover `passes` traced passes, and
// rt the runtime counters of as many untraced ones.
func perLayerValues(tr *tracer, rt runtimeSample, passes int, kb map[sim.Arch]float64, overhead float64) map[string]float64 {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	o := tr.obs
	tr.mu.Unlock()
	agg := aggregateSpans(spans)
	v := make(map[string]float64)
	per := func(x uint64) float64 { return float64(x) / float64(passes) }

	nsNext, nsPred := o.gen.nsPerCall(tr.clockNs), o.pred.nsPerCall(tr.clockNs)
	for a, x := range o.arch {
		name := a.String()
		if x.runs > 0 {
			self := float64(x.runNs) - float64(x.genInRun)*nsNext - float64(x.predInRun)*nsPred
			v["engine.self_ns_per_instr."+name] = ratio(self, float64(x.instrs))
			v["engine.ns_per_cycle."+name] = ratio(self, float64(x.cycles))
			v["engine.ipc."+name] = ratio(float64(x.committed), float64(x.measCycles))
		}
		if x.constructs > 0 {
			v["engine.construct_us."+name] = float64(x.constructNs) / float64(x.constructs) / 1e3
		}
		if k, ok := kb[a]; ok {
			v["engine.construct_kb."+name] = k
		}
	}
	if o.committed > 0 {
		k := float64(o.committed) / 1000
		v["engine.stall_per_kinstr.rob"] = float64(o.stallROB) / k
		v["engine.stall_per_kinstr.iq"] = float64(o.stallIQ) / k
		v["engine.stall_per_kinstr.lsq"] = float64(o.stallLSQ) / k
		if d := o.arch[sim.ArchDKIP]; d != nil && d.committed > 0 {
			v["core.cp_frac"] = float64(o.cpCommitted) / float64(d.committed)
			v["core.llib_full_stalls"] = float64(o.llibFull) / float64(passes)
			v["core.recoveries"] = per(o.recoveries)
		}
		v["predictor.mispredict_rate"] = ratio(float64(o.mispredicts), float64(o.branches))
	}
	if o.gen.calls > 0 {
		v["workload.next_calls"] = per(o.gen.calls)
		v["workload.ns_per_next"] = nsNext
		if root := agg["run"]; root != nil {
			v["workload.time_frac"] = ratio(float64(o.gen.calls)*nsNext, float64(root.total))
		}
	}
	if o.pred.calls > 0 {
		v["predictor.calls"] = per(o.pred.calls)
		v["predictor.ns_per_call"] = nsPred
	}
	if acc := o.memCount[0] + o.memCount[1] + o.memCount[2]; acc > 0 {
		v["mem.accesses"] = per(acc)
		v["mem.l1_miss_rate"] = float64(o.memCount[1]+o.memCount[2]) / float64(acc)
		v["mem.l2_miss_rate"] = ratio(float64(o.memCount[2]), float64(o.memCount[1]+o.memCount[2]))
	}
	if s := agg["mem.warm"]; s != nil {
		v["mem.warm_us"] = s.meanUs()
	}
	if s := agg["sample.run"]; s != nil {
		var inRuns uint64
		for _, x := range o.arch {
			inRuns += x.genInRun
		}
		v["sample.functional_instrs"] = per(o.functionalInstrs)
		v["sample.functional_ns_per_instr"] = ratio(float64(o.functionalNs), float64(o.functionalInstrs))
		v["sample.replay_instrs"] = per(o.gen.calls - inRuns - o.genInFunctional)
		v["sample.replay_frac"] = ratio(float64(s.self), float64(s.total))
		v["sample.detailed_frac"] = ratio(float64(childTotal(spans, "engine.run", "sample.run")), float64(s.total))
		v["ckpt.hits"] = per(o.ckHits)
		v["ckpt.misses"] = per(o.ckMisses)
		v["ckpt.writes"] = per(o.ckWrites)
		v["ckpt.hit_frac"] = ratio(float64(o.ckHits), float64(o.ckHits+o.ckMisses))
		v["ckpt.kb"] = ratio(float64(o.ckBytes), float64(o.ckEncodes)) / 1024
	}
	for _, n := range []string{"capture", "restore", "encode", "decode"} {
		if s := agg["ckpt."+n]; s != nil {
			v["ckpt."+n+"_us"] = s.meanUs()
		}
	}
	for _, n := range []string{"key", "validate", "store_get", "store_put", "blob_get", "blob_put"} {
		if s := agg["sim."+n]; s != nil {
			v["sim."+n+"_us"] = s.meanUs()
		}
	}
	if h := agg["serve.handler"]; h != nil {
		v["serve.handler_us"] = median(h.values) / 1e3
	}
	if agg["serve.client"] != nil {
		v["serve.client_us"] = clientSelfMedianUs(spans)
	}
	if o.responses > 0 {
		v["serve.response_kb"] = float64(o.responseBytes) / float64(o.responses) / 1024
	}
	v["runtime.alloc_mb"] = float64(rt.allocBytes) / float64(passes) / (1 << 20)
	v["runtime.gc_cycles"] = float64(rt.gcCycles) / float64(passes)
	v["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
	v["trace.overhead_frac"] = overhead
	return v
}

// runnerValues computes the sim.* counts per pass from the program's Runner
// counters m, summed over n passes.
func runnerValues(m sim.Metrics, n int) map[string]float64 {
	if n == 0 || m.Requested == 0 {
		return nil
	}
	per := func(x uint64) float64 { return float64(x) / float64(n) }
	return map[string]float64{
		"sim.requested":   per(m.Requested),
		"sim.simulated":   per(m.Simulated),
		"sim.cache_hits":  per(m.CacheHits + m.Deduped),
		"sim.disk_hits":   per(m.DiskHits),
		"sim.disk_writes": per(m.DiskWrites),
		"sim.hit_frac":    float64(m.CacheHits+m.Deduped+m.DiskHits) / float64(m.Requested),
	}
}

// clientSelfMedianUs is the median client-side share of a daemon request:
// the serve.client span minus the handler span nested in it.
func clientSelfMedianUs(spans []span) float64 {
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name == "serve.client" {
			xs = append(xs, float64(self[s.ID]))
		}
	}
	return median(xs) / 1e3
}
