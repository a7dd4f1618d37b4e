package particles

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Steps = 48, 48, 60
	cfg.CostPerParticle = 30e3 // cycles long enough for the 1s load monitor
	return cfg
}

func loadedSpec(n, node, cycle int) cluster.Spec {
	return cluster.Uniform(n).With(cluster.CycleEvent(node, cycle, +1))
}

func TestIntegrateBounces(t *testing.T) {
	const dt, w, h = 1, 10, 10
	pt := integrate(particle{x: 0.5, y: 0.5, vx: -1, vy: -1}, dt, w, h)
	if pt.x != 0.5 || pt.y != 0.5 || pt.vx != 1 || pt.vy != 1 {
		t.Fatalf("bounce at origin wrong: %+v", pt)
	}
	pt = integrate(particle{x: 9.5, y: 9.5, vx: 1, vy: 1}, dt, w, h)
	if pt.x != 9.5 || pt.y != 9.5 || pt.vx != -1 || pt.vy != -1 {
		t.Fatalf("bounce at far corner wrong: %+v", pt)
	}
	pt = integrate(particle{x: 5, y: 5, vx: 0.25, vy: -0.25}, dt, w, h)
	if pt.x != 5.25 || pt.y != 4.75 {
		t.Fatalf("free flight wrong: %+v", pt)
	}
}

func TestParticleRowEncodingRoundTrip(t *testing.T) {
	s := matrix.NewSparse("P", 4, nil)
	s.SetWindow(0, 4)
	in := []particle{
		{pid: 7, x: 1.5, y: 0.25, vx: -0.5, vy: 0.125},
		{pid: 9, x: 2.5, y: 0.75, vx: 0.5, vy: -0.125},
	}
	for _, pt := range in {
		appendParticle(s, 0, pt)
	}
	out := readRow(nil, s, 0)
	if len(out) != 2 {
		t.Fatalf("decoded %d particles", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("particle %d: %+v != %+v", i, out[i], in[i])
		}
	}
	// Survives a pack/unpack cycle (the redistribution path).
	d := matrix.NewSparse("D", 4, nil)
	d.SetWindow(0, 4)
	d.UnpackRow(0, s.PackRow(0))
	out = readRow(nil, d, 0)
	if len(out) != 2 || out[1] != in[1] {
		t.Fatal("particles corrupted by pack/unpack")
	}
}

// TestConservationEveryStep runs the step function directly on 3 ranks and
// asserts the global particle count never changes.
func TestConservationEveryStep(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 25
	cfg.CostPerParticle = 100
	err := mpi.Run(cluster.New(cluster.Uniform(3)), func(c *mpi.Comm) error {
		rt := core.New(c, core.Config{Adapt: false})
		ps := rt.RegisterSparse("P", cfg.Rows)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("P", drsd.ReadWrite, 1, 0)
		rt.Commit()
		lo, hi := ph.Bounds()
		seedParticles(ps, cfg, c.Size(), lo, hi)
		want := rt.AllreduceSum(float64(Census(ps, lo, hi)))
		var sc scratch
		for step := 0; step < cfg.Steps; step++ {
			rt.BeginCycle()
			stepOnce(rt, ps, cfg, &sc)
			rt.EndCycle()
			got := rt.AllreduceSum(float64(Census(ps, lo, hi)))
			if got != want {
				t.Errorf("step %d: %v particles, want %v", step, got, want)
			}
		}
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicDedicated(t *testing.T) {
	cfg := testConfig()
	cfg.Core.Adapt = false
	a, err := Run(cluster.New(cluster.Uniform(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cluster.New(cluster.Uniform(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CheckInt != b.CheckInt {
		t.Fatalf("non-deterministic: %v vs %v", a.CheckInt, b.CheckInt)
	}
	if a.CheckInt == 0 {
		t.Fatal("degenerate checksum")
	}
}

func TestAdaptationPreservesParticlesExactly(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraAllP0 = 2 // the §5.1 imbalance: P0 carries extra particles
	cfg.Core.Drop = core.DropNever
	dedCfg := cfg
	dedCfg.Core.Adapt = false
	ded, err := Run(cluster.New(cluster.Uniform(4)), dedCfg)
	if err != nil {
		t.Fatal(err)
	}
	adp, err := Run(cluster.New(loadedSpec(4, 0, 5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adp.Redists == 0 {
		t.Fatal("no redistribution; scenario broken")
	}
	if adp.CheckInt != ded.CheckInt {
		t.Fatalf("redistribution changed particle states: %v vs %v", adp.CheckInt, ded.CheckInt)
	}
}

func TestAdaptationBeatsNoAdaptation(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraAllP0 = 2
	cfg.Core.Drop = core.DropNever
	spec := loadedSpec(4, 0, 5)
	adp, err := Run(cluster.New(spec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	noCfg := cfg
	noCfg.Core.Adapt = false
	non, err := Run(cluster.New(spec), noCfg)
	if err != nil {
		t.Fatal(err)
	}
	if adp.Elapsed >= non.Elapsed {
		t.Fatalf("Dyn-MPI (%.3fs) not faster than no adaptation (%.3fs)", adp.Elapsed, non.Elapsed)
	}
}

func TestUnbalancedWorkloadRebalancesWithoutLoad(t *testing.T) {
	// Even with no competing process, the imbalanced particle population
	// means equal blocks are unbalanced. With a CP as trigger, Dyn-MPI's
	// per-iteration measurement shifts rows off the heavy node.
	cfg := testConfig()
	cfg.ExtraTopP0 = 6
	cfg.Core.Drop = core.DropNever
	adp, err := Run(cluster.New(loadedSpec(4, 0, 5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adp.Redists == 0 {
		t.Fatal("no redistribution")
	}
}

func TestGracePeriodQualityShape(t *testing.T) {
	// The Figure 7 effect: iterations far below 10ms force wallclock
	// timing; GP=1 keeps spiked samples and mis-sizes the distribution,
	// GP=5's min filter recovers. GP=5 must not be slower.
	cfg := testConfig()
	cfg.Rows, cfg.Cols = 64, 48
	cfg.Steps = 90
	cfg.ExtraTopP0 = 4
	cfg.CostPerParticle = 3e3
	cfg.Core.Drop = core.DropNever
	spec := loadedSpec(4, 0, 5)
	g1 := cfg
	g1.Core.GracePeriod = 1
	g5 := cfg
	g5.Core.GracePeriod = 5
	r1, err := Run(cluster.New(spec), g1)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Run(cluster.New(spec), g5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CheckInt != r5.CheckInt {
		t.Fatalf("grace period changed results: %v vs %v", r1.CheckInt, r5.CheckInt)
	}
	if r5.Elapsed > r1.Elapsed*1.05 {
		t.Fatalf("GP=5 (%.3fs) clearly slower than GP=1 (%.3fs)", r5.Elapsed, r1.Elapsed)
	}
}

func TestCensus(t *testing.T) {
	s := matrix.NewSparse("P", 2, nil)
	s.SetWindow(0, 2)
	appendParticle(s, 0, particle{pid: 1})
	appendParticle(s, 1, particle{pid: 2})
	appendParticle(s, 1, particle{pid: 3})
	if Census(s, 0, 2) != 3 {
		t.Fatalf("census = %d", Census(s, 0, 2))
	}
}

func TestChecksumSensitivity(t *testing.T) {
	s := matrix.NewSparse("P", 1, nil)
	s.SetWindow(0, 1)
	appendParticle(s, 0, particle{pid: 1, x: 1})
	c1 := localChecksum(s, 0, 1)
	s.ClearRow(0)
	appendParticle(s, 0, particle{pid: 1, x: math.Nextafter(1, 2)})
	c2 := localChecksum(s, 0, 1)
	if c1 == c2 {
		t.Fatal("checksum insensitive to state changes")
	}
}

// TestWarmRowRewriteAllocatesNothing pins the steady-state step's row
// rewrite: decoding into the reused buffer, clearing the row and appending
// its particles back reuses the row's own elements.
func TestWarmRowRewriteAllocatesNothing(t *testing.T) {
	s := matrix.NewSparse("P", 1, nil)
	s.SetWindow(0, 1)
	for pid := int32(0); pid < 64; pid++ {
		appendParticle(s, 0, particle{pid: pid, x: float64(pid), y: 0.5, vx: 1, vy: -1})
	}
	var buf []particle
	rewrite := func() {
		buf = readRow(buf[:0], s, 0)
		s.ClearRow(0)
		for _, pt := range buf {
			appendParticle(s, 0, pt)
		}
	}
	rewrite()
	if allocs := testing.AllocsPerRun(100, rewrite); allocs != 0 {
		t.Fatalf("warm row rewrite allocates %v", allocs)
	}
	if Census(s, 0, 1) != 64 {
		t.Fatalf("rewrite lost particles: %d left", Census(s, 0, 1))
	}
}
