package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"

	"dkip/internal/sim"
)

// benchPath is the benchmark's declaration, at the repository root. It
// names every metric the benchmark reports, with its unit.
const benchPath = "BENCHMARK.json"

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// metricSet is what BENCHMARK.json declares: the end-to-end metrics every
// run with tracing off reports, and the per-layer metrics of the traced
// run.
type metricSet struct {
	endToEnd, perLayer []metricDef
}

// loadMetrics reads the declared metrics from BENCHMARK.json.
func loadMetrics(path string) (metricSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return metricSet{}, err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return metricSet{}, fmt.Errorf("parse %s: %w", path, err)
	}
	defs := func(l []struct{ Name, Unit string }) []metricDef {
		out := make([]metricDef, len(l))
		for i, m := range l {
			out[i] = metricDef{m.Name, m.Unit}
		}
		return out
	}
	return metricSet{defs(decl.EndToEnd), defs(decl.PerLayer)}, nil
}

// value is one reported metric: its figure and a note on how many samples
// it rests on.
type value struct {
	v    float64
	note string
}

// endToEndValues aggregates the passes of an untraced run. Times, rates and
// peak memory are medians over passes, so a burst of load on the host moves
// them less than it moves a mean. Round trips pool the operations of every
// pass; the tail is the highest percentile that leaves ten of minPasses
// passes' operations beyond it, so it names the same percentile in every
// run of a workload however many passes the run makes.
func endToEndValues(passes []passResult, setup float64, setups int) map[string]value {
	var walls, rates, peaks, lat []float64
	archRates := map[sim.Arch][]float64{}
	runs := map[sim.Arch]int{}
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(len(p.ops))/p.wall.Seconds())
		peaks = append(peaks, p.peakMiB)
		committed := map[sim.Arch]uint64{}
		busy := map[sim.Arch]float64{}
		for _, o := range p.ops {
			lat = append(lat, float64(o.rtt)/1e6)
			if o.committed > 0 {
				committed[o.arch] += o.committed
				busy[o.arch] += o.rtt.Seconds()
				runs[o.arch]++
			}
		}
		for a, c := range committed {
			archRates[a] = append(archRates[a], float64(c)/busy[a])
		}
	}
	sort.Float64s(lat)
	tailP := tailPercentile(minPasses * len(passes[0].ops))
	n, ops := len(passes), len(lat)
	v := map[string]value{
		"wall_s":      {median(walls), fmt.Sprintf("median of %d passes", n)},
		"setup_s":     {setup, fmt.Sprintf("median of %d set-ups", setups)},
		"peak_rss_mb": {median(peaks), fmt.Sprintf("median of %d passes", n)},
		"rtt_p50_ms":  {percentile(lat, 50), fmt.Sprintf("p50 of %d passes; n=%d", n, ops)},
		"rtt_tail_ms": {percentile(lat, tailP), fmt.Sprintf("p%g of %d passes (%d beyond); n=%d", tailP, n, ops-int(math.Ceil(tailP/100*float64(ops))), ops)},
		"req_per_s":   {median(rates), fmt.Sprintf("median of %d passes; n=%d", n, ops)},
	}
	for _, a := range sim.Archs() {
		if r := archRates[a]; len(r) > 0 {
			v["instrs_per_s."+a.String()] = value{median(r), fmt.Sprintf("median of %d passes; %d simulating ops", len(r), runs[a])}
		}
	}
	return v
}

// resetPeakRSS returns the heap's free memory to the operating system and
// restarts the kernel's count of peak resident memory, so that the next
// peakRSSMiB covers only what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the peak resident set size (Linux).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak memory: %w", err)
	}
	return nil
}

// peakRSSMiB reads the peak resident set size since the last resetPeakRSS.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak memory: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// finite replaces a value JSON cannot carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
