// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §4). Each experiment is a named function producing a
// Table; the registry maps the paper's table/figure numbers to them. The
// cmd/experiments binary and the root bench_test.go both drive this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// Scale controls simulation length: warmup instructions (not measured) and
// measured instructions per benchmark/configuration pair. A non-nil Sample
// runs every simulation sampled under that plan (functional warming with
// periodic detailed intervals) instead of in full detail.
type Scale struct {
	Warmup  uint64       `json:"warmup"`
	Measure uint64       `json:"measure"`
	Sample  *sample.Plan `json:"sample,omitempty"`
}

// QuickScale is sized for test suites and benchmarks: seconds per experiment.
func QuickScale() Scale { return Scale{Warmup: 10_000, Measure: 40_000} }

// FullScale is the cmd/experiments default: minutes for the big sweeps.
func FullScale() Scale { return Scale{Warmup: 30_000, Measure: 200_000} }

// Table is a formatted experiment result. The JSON tags define the artifact
// schema cmd/experiments -json emits.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes carries the paper-vs-measured commentary printed under the
	// table.
	Notes []string `json:"notes,omitempty"`
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes are not needed:
// cells never contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// registry maps experiment ids to their implementations. Every
// implementation simulates exclusively through the sim.Backend it is handed
// — a local Runner (overlapping runs across experiments memoize per
// Runner) or a serve.Pool sending them to a dkipd fleet.
var registry = map[string]struct {
	title string
	fn    func(sim.Backend, Scale) *Table
}{
	"table1":  {"Memory subsystem configurations (limit study)", Table1},
	"table2":  {"Invariant architectural parameters", Table2},
	"table3":  {"Default values for variable parameters", Table3},
	"fig1":    {"IPC vs window size under six memory subsystems, SpecINT", Figure1},
	"fig2":    {"IPC vs window size under six memory subsystems, SpecFP", Figure2},
	"fig3":    {"Decode-to-issue distance histogram, SpecFP, MEM-400", Figure3},
	"fig9":    {"D-KIP vs baselines and the traditional KILO processor", Figure9},
	"fig10":   {"Impact of scheduling policy and queue sizes, SpecFP", Figure10},
	"fig11":   {"Impact of L2 cache size, SpecINT", Figure11},
	"fig12":   {"Impact of L2 cache size, SpecFP", Figure12},
	"fig13":   {"Maximum LLIB occupancy (instructions and registers), SpecINT", Figure13},
	"fig14":   {"Maximum LLIB occupancy (instructions and registers), SpecFP", Figure14},
	"sec43":   {"Scheduler-policy speedup summary (Section 4.3)", Section43},
	"inorder": {"In-order C920-class calibration core vs the paper machines", Inorder},
	"sampled": {"Sampled vs full-detail CPI across the Figure 9 grid", SampledAccuracy},
	"sec44":   {"Cache-processor instruction share vs L2 size (Section 4.4)", Section44},

	"ablation-analyze":    {"Analyze-stage stall vs idealized analyze", AblationAnalyze},
	"ablation-runahead":   {"Runahead execution vs the D-KIP (related-work alternative)", AblationRunahead},
	"ablation-checkpoint": {"Checkpoint placement: stride vs low-confidence branches", AblationCheckpoint},
	"ablation-mshr":       {"Memory-level parallelism demand: MSHR count sweep", AblationMSHR},
	"ablation-prefetch":   {"Hardware prefetching vs the decoupled window", AblationPrefetch},
	"ablation-aging":      {"Aging-ROB timer sensitivity", AblationAgingTimer},
	"ablation-llib":       {"LLIB size sensitivity", AblationLLIBSize},
	"ablation-llrf":       {"Banked LLRF vs ideal register storage", AblationLLRF},
	"ablation-singlellib": {"Single merged LLIB/MP vs the paper's dual organization", AblationSingleLLIB},
}

// IDs returns all experiment identifiers in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the one-line description of an experiment.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// RunWith executes one experiment by id, simulating through r. Backend
// failures raised out of runAll deep inside an experiment (reachable for a
// remote backend whose daemon restarts mid-sweep) surface as ordinary
// errors, not crashes.
func RunWith(r sim.Backend, id string, s Scale) (t *Table, err error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), " "))
	}
	defer func() {
		if rec := recover(); rec != nil {
			be, ok := rec.(backendError)
			if !ok {
				panic(rec)
			}
			t, err = nil, be.err
		}
	}()
	t = e.fn(r, s)
	t.ID = id
	if t.Title == "" {
		t.Title = e.title
	}
	return t, nil
}

// ---- shared simulation helpers ----

// job is one (architecture, benchmark) simulation: an experiment-local
// result key plus the canonical RunSpec handed to the Runner.
type job struct {
	key  string
	spec sim.RunSpec
}

// backendError carries a Backend failure out of runAll, through the
// error-less experiment functions, to RunWith's recover.
type backendError struct{ err error }

// runAll executes jobs through the backend's worker pool and returns stats
// keyed by job key. Identical specs — within this call or against anything
// the backend has executed before — simulate once.
func runAll(r sim.Backend, jobs []job) map[string]*pipeline.Stats {
	out := make(map[string]*pipeline.Stats, len(jobs))
	for k, res := range runAllResults(r, jobs) {
		out[k] = res.Stats
	}
	return out
}

// runAllResults is runAll keeping the whole Result per job, for experiments
// that need more than pipeline stats (e.g. the sampling summary).
func runAllResults(r sim.Backend, jobs []job) map[string]*sim.Result {
	specs := make([]sim.RunSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	results, err := r.RunAll(specs)
	if err != nil {
		// Specs are built from registered configurations and benchmark
		// names, so a local failure is a programming error — but a remote
		// backend legitimately fails on transport; RunWith turns this into
		// an ordinary error either way.
		panic(backendError{fmt.Errorf("experiments: %w", err)})
	}
	out := make(map[string]*sim.Result, len(jobs))
	for i, j := range jobs {
		out[j.key] = results[i]
	}
	return out
}

// runOOO builds a job simulating an out-of-order (or KILO) configuration.
func runOOO(key, bench string, cfg ooo.Config, s Scale) job {
	j := job{key: key, spec: sim.OOOSpec(bench, cfg, s.Warmup, s.Measure)}
	if s.Sample != nil {
		j.spec.Sample = *s.Sample
	}
	return j
}

// runDKIP builds a job simulating a D-KIP configuration.
func runDKIP(key, bench string, cfg core.Config, s Scale) job {
	j := job{key: key, spec: sim.DKIPSpec(bench, cfg, s.Warmup, s.Measure)}
	if s.Sample != nil {
		j.spec.Sample = *s.Sample
	}
	return j
}

// runInorder builds a job simulating an in-order (C920-class) configuration.
func runInorder(key, bench string, cfg inorder.Config, s Scale) job {
	j := job{key: key, spec: sim.InorderSpec(bench, cfg, s.Warmup, s.Measure)}
	if s.Sample != nil {
		j.spec.Sample = *s.Sample
	}
	return j
}

// suiteMean averages IPC over a suite from keyed results; key is
// prefix+"/"+benchmark.
func suiteMean(res map[string]*pipeline.Stats, prefix string, suite workload.Suite) float64 {
	names := workload.SuiteNames(suite)
	var sum float64
	for _, n := range names {
		st, ok := res[prefix+"/"+n]
		if !ok {
			panic(fmt.Sprintf("experiments: missing result %s/%s", prefix, n))
		}
		sum += st.IPC()
	}
	return sum / float64(len(names))
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
