package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// rmaGoldenText renders one study row with full float precision, the form
// testdata/rma64.golden pins.
func rmaGoldenText(row RMARow) string {
	return fmt.Sprintf("nodes %v\npaired_stall_s %v\nrma_stall_s %v\npaired_s %v\nrma_s %v\n",
		row.Nodes, row.PairedStallS, row.RMAStallS, row.PairedS, row.RMAS)
}

// TestRMAStallReduction pins the headline refresh claim: at the acceptance
// world sizes the deferred-epoch one-sided refresh cuts the holder-side
// replica stall by at least 30% versus the paired send/recv refresh, and
// the 64-rank row matches testdata/rma64.golden bit for bit, so the
// pairwise-epoch timeline cannot drift unnoticed. RunRMA itself enforces
// checksum equality between the modes.
func TestRMAStallReduction(t *testing.T) {
	o := DefaultRMAOptions()
	if testing.Short() {
		o.Nodes = []int{64}
	}
	res, err := RunRMA(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(o.Nodes) {
		t.Fatalf("expected %d rows, got %d", len(o.Nodes), len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PairedStallS <= 0 {
			t.Fatalf("nodes=%d: paired refresh shows no stall; study is vacuous", row.Nodes)
		}
	}
	if r := res.MinReduction(); r < 0.30 {
		t.Fatalf("stall reduction %.1f%% below the 30%% bar", r*100)
	}
	if !res.MakespanOK() {
		t.Fatalf("one-sided makespan exceeds paired somewhere: %+v", res.Rows)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "rma64.golden"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row.Nodes != 64 {
			continue
		}
		found = true
		if got := rmaGoldenText(row); got != string(want) {
			t.Errorf("64-rank RMA row drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	}
	if !found {
		t.Fatal("study has no 64-rank row to compare against the golden")
	}
	if tbl := res.Table(); len(tbl.Rows) != len(res.Rows) {
		t.Fatalf("table rows %d != result rows %d", len(tbl.Rows), len(res.Rows))
	}
}
