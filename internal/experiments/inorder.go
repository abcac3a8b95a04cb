package experiments

import (
	"fmt"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/ooo"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// Inorder anchors the paper machines against a dual-issue in-order core in
// the style of the SG2042's XuanTie C920 — the hardware-calibration target,
// and a third architecture expressed as configuration alone (the
// out-of-order model with one in-order issue queue). Per-benchmark
// IPC for the in-order core next to the smallest out-of-order baseline and
// the default D-KIP: everything a blocked queue head costs the in-order
// machine is exactly the stall class the decoupled window removes.
func Inorder(r sim.Backend, s Scale) *Table {
	c920 := inorder.C920()
	var jobs []job
	for _, b := range workload.Names() {
		jobs = append(jobs, runInorder("c920/"+b, b, c920, s))
		jobs = append(jobs, runOOO("r10/"+b, b, ooo.R10K64(), s))
		jobs = append(jobs, runDKIP("dkip/"+b, b, core.Config{}, s))
	}
	res := runAll(r, jobs)

	t := &Table{Columns: []string{"benchmark", "suite", "C920", "R10-64", "DKIP-2048", "R10-64/C920", "DKIP/C920"}}
	for _, suite := range []workload.Suite{workload.SpecINT, workload.SpecFP} {
		label := "int"
		if suite == workload.SpecFP {
			label = "fp"
		}
		for _, b := range workload.SuiteNames(suite) {
			ino := res["c920/"+b].IPC()
			r10 := res["r10/"+b].IPC()
			dk := res["dkip/"+b].IPC()
			t.Rows = append(t.Rows, []string{
				b, label, f3(ino), f3(r10), f3(dk),
				fmt.Sprintf("%.2fx", r10/ino), fmt.Sprintf("%.2fx", dk/ino),
			})
		}
	}
	meanIno := suiteMean(res, "c920", workload.SpecFP)
	meanDK := suiteMean(res, "dkip", workload.SpecFP)
	t.Notes = append(t.Notes,
		fmt.Sprintf("SpecFP mean IPC: C920 %.3f, DKIP-2048 %.3f (%.2fx)", meanIno, meanDK, meanDK/meanIno),
		"the in-order core is the lower anchor: a blocked queue head serializes every",
		"long-latency load, the stall class the decoupled window is designed to remove")
	return t
}
