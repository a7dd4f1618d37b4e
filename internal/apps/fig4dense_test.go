package apps_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/cg"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
)

var updateFig4Dense = flag.Bool("update", false, "rewrite testdata/fig4dense.golden")

// denseApp runs one dense Figure 4 application at the tier-1 scale.
type denseApp struct {
	name string
	run  func(cl *cluster.Cluster, c core.Config) (apps.Result, error)
}

// fig4DenseApps mirrors the tier-1 Figure 4 configuration of the dense
// applications (jacobi, sor, cg).
func fig4DenseApps() []denseApp {
	jc := jacobi.DefaultConfig()
	jc.Rows, jc.Cols, jc.Iters, jc.CostPerElem = 512, 512, 250, 600
	sc := sor.DefaultConfig()
	sc.Rows, sc.Cols, sc.Iters, sc.CostPerElem = 512, 512, 250, 600
	cc := cg.DefaultConfig()
	cc.N, cc.Iters, cc.CostPerNnz = 2000, 150, 4600
	return []denseApp{
		{"jacobi", func(cl *cluster.Cluster, c core.Config) (apps.Result, error) {
			cfg := jc
			cfg.Core = c
			return jacobi.Run(cl, cfg)
		}},
		{"sor", func(cl *cluster.Cluster, c core.Config) (apps.Result, error) {
			cfg := sc
			cfg.Core = c
			return sor.Run(cl, cfg)
		}},
		{"cg", func(cl *cluster.Cluster, c core.Config) (apps.Result, error) {
			cfg := cc
			cfg.Core = c
			return cg.Run(cl, cfg)
		}},
	}
}

// formatDense renders a world's virtual-time outputs at full precision,
// the checksum as its IEEE-754 bits.
func formatDense(label string, r apps.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s elapsed=%v checksum=%#016x redists=%v\n",
		label, r.Elapsed, math.Float64bits(r.Checksum), r.Redists)
	for _, st := range r.Stats {
		fmt.Fprintf(&b, "%s rank=%v finish=%v\n", label, st.Rank, int64(st.Finish))
	}
	return b.String()
}

// TestFig4DenseGolden pins every virtual-time output of the dense Figure 4
// triples (dedicated, no-adapt, dyn-mpi on 2, 4 and 8 nodes; one competing
// process on node 1 at cycle 10) byte for byte: host-side changes to the
// stencil loops or the modelled node must not move a single modelled
// nanosecond or checksum bit. Regenerate with `go test ./internal/apps -run
// Fig4DenseGolden -update` only after an intentional cost-model change.
func TestFig4DenseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full dense Figure 4 worlds; skipped in -short mode")
	}
	var b strings.Builder
	for _, app := range fig4DenseApps() {
		for _, n := range []int{2, 4, 8} {
			ded := cluster.Uniform(n)
			loaded := ded.With(cluster.CycleEvent(1%n, 10, +1))
			for _, m := range []struct {
				label string
				spec  cluster.Spec
				core  core.Config
			}{
				{"dedicated", ded, core.Config{Adapt: false}},
				{"no-adapt", loaded, core.Config{Adapt: false}},
				{"dyn-mpi", loaded, core.DefaultConfig()},
			} {
				label := fmt.Sprintf("fig4/%s/n%d/%s", app.name, n, m.label)
				r, err := app.run(cluster.New(m.spec), m.core)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				b.WriteString(formatDense(label, r))
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "fig4dense.golden")
	if *updateFig4Dense {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("dense Figure 4 worlds drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
