package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/apps"
	"repro/internal/apps/cg"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/particles"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sweep"
)

// Seeds. defaultSeed reproduces the paper's scenarios exactly; heldOutSeed
// is never used while tuning a change and must confirm any claimed gain.
const (
	defaultSeed = 0
	heldOutSeed = 20031
)

// particleSteps is the step count of every particles world. Tier-1 runs
// 250 steps; one tier-1 figures pass then takes about 37 s of host time on
// a 2-CPU host, longer than a benchmark run. 50 steps keeps the CP arrival,
// the grace window, the redistribution and the drop decision, and the same
// per-step profile.
const particleSteps = 50

// Large-world lengths: the soak's collective cycles per world and the
// replica-refresh study's phase cycles.
const (
	soakCycles = 200
	rmaIters   = 60
)

// scenario is what a seed decides.
type scenario struct {
	cpCycle     int     // phase cycle the competing process arrives at
	cpShift     int     // offset added to the paper's CP node (dense apps)
	clusterSeed uint64  // added to every cluster seed
	sweepCP     int     // sweep grid CP node
	crashNode   int     // sweep grid crash node
	crashCycle  int     // sweep grid crash cycle
	rmaCost     float64 // replica-refresh study's modelled ns per element
}

// scenarioFor draws a seed's scenario. The ranges stop where the runtime
// is known to fail, so that every unit completes (see README.md, "Known
// defects"): a crash of node 0 while the CP loads another node panics
// replica recovery, and a crash landing three to six cycles after the CP
// arrives can deadlock the sweep. Both are open defects.
func scenarioFor(seed uint64) scenario {
	if seed == defaultSeed {
		return scenario{cpCycle: 10, sweepCP: 1, crashNode: 2, crashCycle: 12, rmaCost: 40}
	}
	x := seed
	next := func(n uint64) int { return int(splitmix(&x) % n) }
	s := scenario{
		cpCycle:     9 + next(3),
		cpShift:     next(8),
		clusterSeed: seed,
		sweepCP:     next(4),
		crashCycle:  11 + next(2),
		// The study runs on a dedicated cluster, where the cluster seed
		// changes nothing; a 2% spread of the modelled cost moves its
		// virtual times without changing the host work.
		rmaCost: 40 * (1 + float64(next(5)-2)/100),
	}
	// The crash lands on another node than the CP and never on node 0.
	s.crashNode = 1 + next(3)
	if s.crashNode == s.sweepCP {
		s.crashNode = 1 + s.crashNode%3
	}
	return s
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// maxProcs is the GOMAXPROCS of every child and the sweep pool width.
func maxProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// unit is one closed-loop step. run executes it against tr (which is
// inert in untraced runs) and returns its virtual outcome.
type unit struct {
	key       string
	rankSteps int64          // rank-cycles (or rank-collective calls) from the configuration
	worlds    []cluster.Spec // the modelled cluster of every world run calls up
	run       func(tr *tracer) (outcome, error)
	// replay, if set, runs in traced executions after run has been timed
	// and profiled, to count what run's entry point keeps to itself.
	replay func(tr *tracer) error
}

// outcome is what a unit reports beyond host measurements.
type outcome struct {
	makespanS float64   // sum of the adaptive worlds' virtual makespans
	dedRatios []float64 // adaptive makespan / dedicated twin, per world
	fp        fingerprint
	virt      layerSums // deterministic per-layer counts from results
}

// units generates a workload's unit list from a seed. The workloads are
// each a closed loop over a fixed list of units. A unit is
// one or more calls into the program's public entry points plus the
// correctness checks that compare their outputs; the parent runs each unit
// in its own child process (see harness.go).
//
//   - figures: the Figure 4 matrix (4 apps x {2,4,8} nodes x dedicated,
//     no-adapt and dyn-mpi) and Figure 7 (particles, GP 1 vs 5) with a nil
//     telemetry sink. Loads apps, matrix, the modelled node and GC; 1-2
//     redistributions per world, no sweep, RMA or resize.
//   - sweep: the smoke grid's axes enlarged in ranks and iterations, run
//     through sweep.Run with the per-world telemetry ring on. Loads core
//     (redistribution, recovery, replicas, resize), telemetry and the sweep
//     scheduler; no sparse matrices or particles.
//   - large-world: the collective soak at 64/256/1024 ranks and the
//     replica-refresh study at 64/256 ranks. Loads collectives, RMA epochs
//     and the goroutine scheduler; per-rank kernel work is tiny.
func units(workload string, seed uint64) ([]unit, error) {
	sc := scenarioFor(seed)
	switch workload {
	case "figures":
		return figuresUnits(sc), nil
	case "sweep":
		return sweepUnits(sc)
	case "large-world":
		return largeWorldUnits(sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures|sweep|large-world)", workload)
}

// appRun runs one application world.
type appRun func(tr *tracer, label string, spec cluster.Spec, c core.Config) (apps.Result, error)

// fig4Apps mirrors the tier-1 Figure 4 configuration of internal/exp.
func fig4Apps() (names []string, runs map[string]appRun, iters map[string]int) {
	jc := jacobi.DefaultConfig()
	sc := sor.DefaultConfig()
	cc := cg.DefaultConfig()
	pc := particles.DefaultConfig()
	jc.Rows, jc.Cols, jc.Iters, jc.CostPerElem = 512, 512, 250, 600
	sc.Rows, sc.Cols, sc.Iters, sc.CostPerElem = 512, 512, 250, 600
	cc.N, cc.Iters, cc.CostPerNnz = 2000, 150, 4600
	pc.Rows, pc.Cols, pc.Steps, pc.CostPerParticle = 128, 128, particleSteps, 5000
	pc.ExtraAllP0 = pc.BasePerCell
	runs = map[string]appRun{
		"jacobi": func(tr *tracer, label string, spec cluster.Spec, c core.Config) (apps.Result, error) {
			cfg := jc
			cfg.Core = c
			return tr.runApp(label, &cfg.Core, func() (apps.Result, error) { return jacobi.Run(cluster.New(spec), cfg) })
		},
		"sor": func(tr *tracer, label string, spec cluster.Spec, c core.Config) (apps.Result, error) {
			cfg := sc
			cfg.Core = c
			return tr.runApp(label, &cfg.Core, func() (apps.Result, error) { return sor.Run(cluster.New(spec), cfg) })
		},
		"cg": func(tr *tracer, label string, spec cluster.Spec, c core.Config) (apps.Result, error) {
			cfg := cc
			cfg.Core = c
			return tr.runApp(label, &cfg.Core, func() (apps.Result, error) { return cg.Run(cluster.New(spec), cfg) })
		},
		"particles": func(tr *tracer, label string, spec cluster.Spec, c core.Config) (apps.Result, error) {
			cfg := pc
			cfg.Core = c
			return tr.runApp(label, &cfg.Core, func() (apps.Result, error) { return particles.Run(cluster.New(spec), cfg) })
		},
	}
	iters = map[string]int{"jacobi": jc.Iters, "sor": sc.Iters, "cg": cc.Iters, "particles": pc.Steps}
	return []string{"jacobi", "sor", "cg", "particles"}, runs, iters
}

func figuresUnits(sc scenario) []unit {
	names, runs, iters := fig4Apps()
	var us []unit
	for _, name := range names {
		for _, n := range []int{2, 4, 8} {
			name, n, run := name, n, runs[name]
			// The paper's CP node: node 1 for the dense apps, P0 (which also
			// holds twice the particles) for the particle simulation.
			cpNode := 0
			if name != "particles" {
				cpNode = (1 + sc.cpShift) % n
			}
			ded := cluster.Uniform(n)
			ded.Seed += sc.clusterSeed
			loaded := ded.With(cluster.CycleEvent(cpNode, sc.cpCycle, +1))
			us = append(us, unit{
				key:       fmt.Sprintf("fig4/%s/n%d", name, n),
				rankSteps: int64(3 * n * iters[name]),
				worlds:    []cluster.Spec{ded, loaded, loaded},
				run: func(tr *tracer) (outcome, error) {
					return twinTriple(tr, run, name, ded, loaded, core.Config{Adapt: false}, core.DefaultConfig())
				},
			})
		}
	}
	// Figure 7: 8 nodes, P0's top rows seeded with Part extra particles, a
	// CP on P0; GP 1 against GP 5, each checked against a dedicated twin.
	ded := cluster.Uniform(8)
	ded.Seed += sc.clusterSeed
	loaded := ded.With(cluster.CycleEvent(0, sc.cpCycle, +1))
	for _, part := range []int{10, 50} {
		part := part
		us = append(us, unit{
			key:       fmt.Sprintf("fig7/part%d", part),
			rankSteps: int64(3 * 8 * particleSteps),
			worlds:    []cluster.Spec{ded, loaded, loaded},
			run: func(tr *tracer) (outcome, error) {
				cfg := particles.DefaultConfig()
				cfg.Rows, cfg.Cols, cfg.Steps, cfg.CostPerParticle = 128, 96, particleSteps, 1500
				cfg.ExtraTopP0 = part
				run := func(label string, spec cluster.Spec, c core.Config) (apps.Result, error) {
					x := cfg
					x.Core = c
					return tr.runApp(label, &x.Core, func() (apps.Result, error) { return particles.Run(cluster.New(spec), x) })
				}
				var o outcome
				dr, err := run("particles dedicated", ded, core.Config{Adapt: false})
				if err != nil {
					return o, err
				}
				o.add("dedicated", dr)
				for _, gp := range []int{1, 5} {
					c := core.DefaultConfig()
					c.Drop = core.DropNever
					c.GracePeriod = gp
					r, err := run(fmt.Sprintf("particles gp%d", gp), loaded, c)
					if err != nil {
						return o, err
					}
					if r.CheckInt != dr.CheckInt {
						return o, fmt.Errorf("gp%d checksum %d != dedicated %d", gp, r.CheckInt, dr.CheckInt)
					}
					o.add(fmt.Sprintf("gp%d", gp), r)
					o.makespanS += r.Elapsed
				}
				return o, nil
			},
		})
	}
	return us
}

// twinTriple runs a dedicated world, then the loaded world without and with
// adaptation, and checks both loaded checksums against the dedicated twin:
// bit-exact Checksum for the dense apps, CheckInt for particles.
func twinTriple(tr *tracer, run appRun, name string, ded, loaded cluster.Spec, plain, dyn core.Config) (outcome, error) {
	var o outcome
	dr, err := run(tr, name+" dedicated", ded, plain)
	if err != nil {
		return o, fmt.Errorf("dedicated: %w", err)
	}
	o.add("dedicated", dr)
	for _, m := range []struct {
		label string
		cfg   core.Config
	}{{"no-adapt", plain}, {"dyn-mpi", dyn}} {
		r, err := run(tr, name+" "+m.label, loaded, m.cfg)
		if err != nil {
			return o, fmt.Errorf("%s: %w", m.label, err)
		}
		if err := sameChecksum(r, dr); err != nil {
			return o, fmt.Errorf("%s: %w", m.label, err)
		}
		o.add(m.label, r)
		if m.cfg.Adapt {
			o.makespanS += r.Elapsed
			o.dedRatios = append(o.dedRatios, r.Elapsed/dr.Elapsed)
		}
	}
	return o, nil
}

func sameChecksum(r, twin apps.Result) error {
	if math.Float64bits(r.Checksum) != math.Float64bits(twin.Checksum) || r.CheckInt != twin.CheckInt {
		return fmt.Errorf("checksum %v/%d != dedicated twin %v/%d", r.Checksum, r.CheckInt, twin.Checksum, twin.CheckInt)
	}
	return nil
}

// sweepGrid is the smoke grid's axes with ranks and iterations enlarged
// until one sweep lasts long enough to time steadily (cells at 96x96 and
// 30 iterations take a quarter of a second a sweep).
func sweepGrid(sc scenario) sweep.Grid {
	g := sweep.Smoke()
	g.Ranks = []int{4, 8, 16}
	g.Iters = 60
	g.CPNode, g.CPCycle = sc.sweepCP, sc.cpCycle
	g.CrashNode, g.CrashCycle = sc.crashNode, sc.crashCycle
	return g
}

func sweepUnits(sc scenario) ([]unit, error) {
	g := sweepGrid(sc)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	steps := int64(0)
	var worlds []cluster.Spec
	for _, c := range g.Cells() {
		steps += int64(c.Ranks * g.Iters)
		worlds = append(worlds, cellSpec(g, c))
	}
	for range g.Scenarios {
		for _, n := range g.Ranks {
			steps += int64(n * g.Iters)
			worlds = append(worlds, cluster.Uniform(n))
		}
	}
	var res *sweep.Result
	return []unit{{
		key:       "sweep/grid",
		rankSteps: steps,
		worlds:    worlds,
		run: func(tr *tracer) (o outcome, err error) {
			o, res, err = runSweep(tr, g)
			return o, err
		},
		replay: func(tr *tracer) error { return replaySweep(tr, g, res) },
	}}, nil
}

func largeWorldUnits(sc scenario) []unit {
	var us []unit
	for _, n := range []int{64, 256, 1024} {
		n := n
		us = append(us, unit{
			key: fmt.Sprintf("soak/n%d", n),
			// Five collectives per cycle on every rank.
			rankSteps: int64(5 * n * soakCycles),
			worlds:    []cluster.Spec{cluster.Uniform(n)},
			run: func(tr *tracer) (outcome, error) {
				return runSoak(tr, n)
			},
		})
	}
	for _, n := range []int{64, 256} {
		n := n
		spec := cluster.Uniform(n)
		spec.Seed += sc.clusterSeed
		us = append(us, unit{
			key:       fmt.Sprintf("rma/n%d", n),
			rankSteps: int64(3 * n * rmaIters),
			worlds:    []cluster.Spec{spec, spec, spec},
			run: func(tr *tracer) (outcome, error) {
				return runRMA(tr, spec, sc.rmaCost)
			},
		})
	}
	return us
}

// setup is the work a run does before its first unit: generating every
// unit's inputs from the seed (which enumerates the sweep grid) and setting
// up every world once: its modelled cluster, and an MPI world whose ranks
// start and return at once.
func setup(workload string, seed uint64) ([]unit, error) {
	us, err := units(workload, seed)
	if err != nil {
		return nil, err
	}
	for _, u := range us {
		for _, spec := range u.worlds {
			if err := mpi.Run(cluster.New(spec), func(*mpi.Comm) error { return nil }); err != nil {
				return nil, fmt.Errorf("set-up %s: %w", u.key, err)
			}
		}
	}
	return us, nil
}
