// Command dkipsim runs one processor configuration on one workload and
// prints detailed statistics.
//
// Usage:
//
//	dkipsim -arch dkip -bench swim -n 200000
//	dkipsim -arch r10-64 -bench mcf
//	dkipsim -arch kilo -bench applu -l2 2097152
//	dkipsim -arch inorder -bench swim
//	dkipsim -arch limit -window 4096 -bench art
//	dkipsim -arch dkip -cp ino -mp ooo -mpq 40 -bench equake
//	dkipsim -arch dkip -bench swim -json
//	dkipsim -arch dkip -bench swim -cache-dir ~/.cache/dkip
//	dkipsim -list
//
// -arch takes a machine preset (sim.PresetNames: the paper machines plus the
// in-order calibration core) or "limit" for the window-limit study core; an
// unknown name exits with the preset list. The flags assemble one
// sim.RunSpec which executes through the same run-orchestration layer as
// cmd/experiments; -json prints the structured sim.Result record instead of
// the human-readable summary. -cache-dir shares cmd/experiments' persistent
// result store (a repeated run is served from disk); -shard i/n exits
// without simulating when the spec is not assigned to shard i — the building
// block for driving many dkipsim processes over a partitioned run matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/sim"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

func main() {
	var (
		arch      = flag.String("arch", "dkip", "machine preset ("+strings.Join(sim.PresetNames(), ", ")+") or limit")
		bench     = flag.String("bench", "swim", "benchmark name (see -list)")
		n         = flag.Uint64("n", 200_000, "instructions to measure")
		warmup    = flag.Uint64("warmup", 20_000, "instructions to warm up (not measured)")
		l2        = flag.Int("l2", 512<<10, "L2 cache size in bytes")
		memLat    = flag.Int("memlat", 400, "main memory latency in cycles")
		window    = flag.Int("window", 2048, "ROB size for -arch limit")
		cpPol     = flag.String("cp", "ooo", "D-KIP Cache Processor scheduler: ooo or ino")
		mpPol     = flag.String("mp", "ino", "D-KIP Memory Processor scheduler: ooo or ino")
		cpq       = flag.Int("cpq", 40, "D-KIP CP issue-queue size")
		mpq       = flag.Int("mpq", 20, "D-KIP MP queue size")
		llib      = flag.Int("llib", 2048, "D-KIP LLIB entries (each)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		verbose   = flag.Bool("v", false, "print extended statistics")
		jsonOut   = flag.Bool("json", false, "print the structured sim.Result record as JSON")
		traceFile = flag.String("trace", "", "drive the simulation from a binary trace file instead of -bench")
		cacheDir  = flag.String("cache-dir", "", "persistent result-store directory shared with cmd/experiments")
		shard     = flag.String("shard", "", "skip the run unless the spec falls in shard i of n (\"i/n\")")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks (SpecINT then SpecFP):")
		for _, name := range workload.Names() {
			p, _ := workload.Lookup(name)
			fmt.Printf("  %-10s %s\n", name, p.Suite)
		}
		return
	}

	mc := mem.DefaultConfig()
	mc.L2Size = *l2
	mc.MemLatency = *memLat
	var l2Set, memLatSet bool
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "l2":
			l2Set = true
		case "memlat":
			memLatSet = true
		}
	})

	// Assemble the RunSpec for the selected architecture.
	var spec sim.RunSpec
	switch name := strings.ToLower(*arch); name {
	case "limit":
		spec = sim.LimitSpec(*window, mc, *bench, *warmup, *n)
	case "dkip":
		spec = sim.MustPresetSpec("dkip", *bench, *warmup, *n)
		spec.DKIP.CPInOrder = *cpPol == "ino"
		spec.DKIP.MPInOrder = sim.Bool(*mpPol == "ino")
		spec.DKIP.CPIQSize = *cpq
		spec.DKIP.MPIQSize = *mpq
		spec.DKIP.LLIBSize = *llib
		spec.DKIP.Mem = mc
	default:
		s, err := sim.PresetSpec(name, *bench, *warmup, *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec = s
		switch spec.Arch {
		case sim.ArchOOO:
			spec.OOO.Mem = mc
		case sim.ArchDKIP:
			spec.DKIP.Mem = mc
		case sim.ArchInorder:
			// The in-order preset's memory system (the SG2042 socket) is
			// part of the machine: override only what was explicitly
			// flagged.
			if l2Set {
				spec.Inorder.Mem.L2Size = *l2
			}
			if memLatSet {
				spec.Inorder.Mem.MemLatency = *memLat
			}
		}
	}

	var res *sim.Result
	if *traceFile != "" {
		// Trace-driven runs bypass the Runner's workload registry (and
		// its cache — an arbitrary trace has no stable identity) and use
		// the low-level entry point.
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		g, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec.Bench = g.Name()
		start := time.Now()
		st := sim.Simulate(spec, g, nil)
		res = &sim.Result{
			Arch: spec.Arch.String(), Config: spec.ConfigName(), Bench: g.Name(),
			Warmup: spec.Warmup, Measure: spec.Measure, Elapsed: time.Since(start), Stats: st,
		}
	} else {
		shardI, shardN, err := sim.ParseShard(*shard)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !sim.InShard(spec, shardI, shardN) {
			fmt.Fprintf(os.Stderr, "dkipsim: %s not in shard %d/%d, skipping\n", spec.Label(), shardI, shardN)
			return
		}
		var opts []sim.Option
		if *cacheDir != "" {
			store, err := sim.OpenStore(*cacheDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			opts = append(opts, sim.WithStore(store))
		}
		res, err = sim.NewRunner(opts...).Run(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		if err := sim.WriteJSON(os.Stdout, []*sim.Result{res}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%s on %s: %s\n", res.Config, res.Bench, res.Stats)
	if *verbose {
		printVerbose(res.Stats)
	}
}

func printVerbose(st *pipeline.Stats) {
	fmt.Printf("  loads by level: L1=%d L2=%d MEM=%d\n", st.LoadLevel[0], st.LoadLevel[1], st.LoadLevel[2])
	fmt.Printf("  stalls: ROB=%d IQ=%d LSQ=%d\n", st.StallROBFull, st.StallIQFull, st.StallLSQFull)
	if st.CPCommitted+st.MPCommitted > 0 {
		fmt.Printf("  D-KIP: CP share=%.1f%% LLIB max instrs=%v max regs=%v\n",
			100*st.CPFraction(), st.MaxLLIBInstrs, st.MaxLLIBRegs)
		fmt.Printf("  D-KIP: analyze-wait stalls=%d LLIB-full stalls=%d checkpoints=%d recoveries=%d bank conflicts=%d\n",
			st.AnalyzeWaitStalls, st.LLIBFullStalls, st.Checkpoints, st.Recoveries, st.LLRFBankConflicts)
	}
	fmt.Printf("  decode->issue: mean=%.0f cycles, <100: %.1f%%, 300-500: %.1f%%, 700-900: %.1f%%\n",
		st.IssueLat.Mean(), 100*st.IssueLat.FracRange(0, 100),
		100*st.IssueLat.FracRange(300, 500), 100*st.IssueLat.FracRange(700, 900))
}
