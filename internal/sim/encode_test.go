package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"dkip/internal/core"
)

func testResult(t *testing.T) *Result {
	t.Helper()
	res, err := NewRunner().Run(DKIPSpec("swim", core.Config{}, testWarmup, testMeasure))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteJSONRoundTrips(t *testing.T) {
	res := testResult(t)
	var b strings.Builder
	if err := WriteJSON(&b, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	var decoded []Result
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d records", len(decoded))
	}
	d := decoded[0]
	if d.Key != res.Key || d.Arch != "dkip" || d.Config != "DKIP-2048" || d.Bench != "swim" {
		t.Errorf("identity fields wrong: %+v", d)
	}
	if d.Stats == nil || *d.Stats != *res.Stats {
		t.Error("stats did not round-trip")
	}
	if !strings.Contains(b.String(), `"cp_committed"`) {
		t.Error("stats encoding lacks snake_case tags")
	}
}

func TestResultCloneIsDeep(t *testing.T) {
	res := testResult(t)
	c := res.clone(true)
	c.Stats.Committed++
	if res.Stats.Committed == c.Stats.Committed {
		t.Error("clone shares Stats with the original")
	}
	if !c.Cached || res.Cached {
		t.Error("clone cached flag wrong")
	}
	if c.IPC() == 0 {
		t.Error("IPC accessor returned zero for a real run")
	}
}
