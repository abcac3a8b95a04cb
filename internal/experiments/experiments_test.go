package experiments

import (
	"strings"
	"testing"

	"dkip/internal/sim"
	"dkip/internal/workload"
)

// testRunner is the Runner the package's tests share, so runs that overlap
// across experiments and tests simulate once per test binary.
var testRunner = sim.NewRunner()

func tiny() Scale { return Scale{Warmup: 2_000, Measure: 8_000} }

func TestRegistryComplete(t *testing.T) {
	// Every table and figure with data in the paper must be registered.
	want := []string{
		"table1", "table2", "table3",
		"fig1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"sec43", "sec44", "sampled", "inorder",
		"ablation-analyze", "ablation-aging", "ablation-llib", "ablation-llrf", "ablation-singlellib",
		"ablation-runahead", "ablation-checkpoint", "ablation-mshr",
		"ablation-prefetch",
	}
	for _, id := range want {
		if _, ok := Title(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(IDs()), len(want))
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := RunWith(testRunner, "nope", tiny()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestStaticTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3"} {
		tab, err := RunWith(testRunner, id, tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty", id)
		}
		if !strings.Contains(tab.String(), tab.ID) {
			t.Errorf("%s: rendering lacks id", id)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab, _ := RunWith(testRunner, "table1", tiny())
	if len(tab.Rows) != 6 {
		t.Fatalf("table 1 rows = %d, want 6", len(tab.Rows))
	}
	if tab.Rows[4][0] != "MEM-400" || tab.Rows[4][5] != "400" {
		t.Errorf("MEM-400 row wrong: %v", tab.Rows[4])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note"},
	}
	s := tab.String()
	if !strings.Contains(s, "333") || !strings.Contains(s, "# note") {
		t.Errorf("rendering wrong:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") || !strings.Contains(csv, "333,4") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

func TestFigure3Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	tab, err := RunWith(testRunner, "fig3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no histogram rows")
	}
	if len(tab.Notes) < 3 {
		t.Error("expected summary notes")
	}
}

func TestFigure13Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	tab, err := RunWith(testRunner, "fig13", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(workload.SuiteNames(workload.SpecINT)) {
		t.Errorf("rows = %d, want one per SpecINT benchmark", len(tab.Rows))
	}
}

func TestSuiteMeanPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("missing result should panic")
		}
	}()
	suiteMean(nil, "x", workload.SpecINT)
}
