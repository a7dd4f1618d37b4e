package particles

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden")

// figuresWorld is one particle world of the figure reproductions.
type figuresWorld struct {
	label string
	spec  cluster.Spec
	cfg   Config
}

// figuresWorlds lists the particle worlds of the Figure 4 and Figure 7
// benchmark units at 50 steps: the dedicated / no-adapt / dyn-mpi triple on
// 2, 4 and 8 nodes with P0 holding twice the particles, then Figure 7's
// Part 10 and 50 on 8 nodes, a dedicated twin against grace periods 1 and 5.
// The competing process lands on P0 at cycle 10.
func figuresWorlds() []figuresWorld {
	const steps, cpCycle = 50, 10
	var ws []figuresWorld
	f4 := DefaultConfig()
	f4.Rows, f4.Cols, f4.Steps, f4.CostPerParticle = 128, 128, steps, 5000
	f4.ExtraAllP0 = f4.BasePerCell
	for _, n := range []int{2, 4, 8} {
		ded := cluster.Uniform(n)
		loaded := ded.With(cluster.CycleEvent(0, cpCycle, +1))
		for _, m := range []struct {
			label string
			spec  cluster.Spec
			core  core.Config
		}{
			{"dedicated", ded, core.Config{Adapt: false}},
			{"no-adapt", loaded, core.Config{Adapt: false}},
			{"dyn-mpi", loaded, core.DefaultConfig()},
		} {
			cfg := f4
			cfg.Core = m.core
			ws = append(ws, figuresWorld{fmt.Sprintf("fig4/n%d/%s", n, m.label), m.spec, cfg})
		}
	}
	ded := cluster.Uniform(8)
	loaded := ded.With(cluster.CycleEvent(0, cpCycle, +1))
	for _, part := range []int{10, 50} {
		f7 := DefaultConfig()
		f7.Rows, f7.Cols, f7.Steps, f7.CostPerParticle = 128, 96, steps, 1500
		f7.ExtraTopP0 = part
		cfg := f7
		cfg.Core = core.Config{Adapt: false}
		ws = append(ws, figuresWorld{fmt.Sprintf("fig7/part%d/dedicated", part), ded, cfg})
		for _, gp := range []int{1, 5} {
			cfg := f7
			cfg.Core = core.DefaultConfig()
			cfg.Core.Drop = core.DropNever
			cfg.Core.GracePeriod = gp
			ws = append(ws, figuresWorld{fmt.Sprintf("fig7/part%d/gp%d", part, gp), loaded, cfg})
		}
	}
	return ws
}

// formatWorld renders a world's virtual-time outputs at full precision.
func formatWorld(label string, r apps.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s elapsed=%v checkint=%v redists=%v\n", label, r.Elapsed, r.CheckInt, r.Redists)
	for _, st := range r.Stats {
		fmt.Fprintf(&b, "%s rank=%v finish=%v\n", label, st.Rank, int64(st.Finish))
	}
	return b.String()
}

// TestFiguresGolden pins every virtual-time output of the figure
// reproductions' particle worlds byte for byte: host-side changes to the
// sparse store or the step loop must not move a single modelled charge.
// Regenerate with `go test ./internal/apps/particles -run FiguresGolden
// -update` only after an intentional change to the cost model.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure particle worlds; skipped in -short mode")
	}
	var b strings.Builder
	for _, w := range figuresWorlds() {
		r, err := Run(cluster.New(w.spec), w.cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.label, err)
		}
		b.WriteString(formatWorld(w.label, r))
	}
	got := b.String()
	golden := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
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
		t.Errorf("particle worlds drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
