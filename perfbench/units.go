package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// fingerprint hashes every virtual-time output of a unit. Virtual time is
// deterministic, so a unit's fingerprint must repeat bit-exactly across
// passes, runs and processes, and between untraced and traced runs.
type fingerprint struct{ h hash.Hash }

func (f *fingerprint) add(label string, vals ...any) {
	if f.h == nil {
		f.h = sha256.New()
	}
	fmt.Fprintf(f.h, "%s", label)
	for _, v := range vals {
		if x, ok := v.(float64); ok {
			v = math.Float64bits(x)
		}
		fmt.Fprintf(f.h, " %v", v)
	}
	fmt.Fprintln(f.h)
}

func (f *fingerprint) sum() string {
	if f.h == nil {
		return ""
	}
	return hex.EncodeToString(f.h.Sum(nil)[:12])
}

// layerSums accumulates named per-layer quantities.
type layerSums map[string]float64

func (l *layerSums) add(name string, v float64) {
	if *l == nil {
		*l = layerSums{}
	}
	(*l)[name] += v
}

// add folds one application world's result into the outcome: its virtual
// outputs into the fingerprint and its per-rank counters into the layer
// sums.
func (o *outcome) add(label string, r apps.Result) {
	o.fp.add(label, r.Elapsed, r.Checksum, r.CheckInt, r.Redists)
	for _, st := range r.Stats {
		o.fp.add("rank", st.Rank, st.Removed, st.Crashed, st.Redists, int64(st.Finish),
			st.SentBytes, st.SentMsgs, int64(st.RefreshStall), len(st.Events))
		o.virt.add("mpi.p2p_msgs", float64(st.SentMsgs))
		o.virt.add("mpi.p2p_bytes", float64(st.SentBytes))
		o.virt.add("core.refresh_stall_virt_s", st.RefreshStall.Seconds())
	}
	o.virt.add("core.redists", float64(r.Redists))
	o.virt.add("core.redist_virt_s", redistSeconds(r))
}

// redistSeconds sums the redistribution windows of the slowest rank.
func redistSeconds(r apps.Result) float64 {
	best := 0.0
	for _, st := range r.Stats {
		var tot, start float64
		open := false
		for _, ev := range st.Events {
			switch ev.Kind {
			case core.EvRedistStart:
				start, open = ev.Time.Seconds(), true
			case core.EvRedistEnd:
				if open {
					tot += ev.Time.Seconds() - start
					open = false
				}
			}
		}
		best = math.Max(best, tot)
	}
	return best
}

// runSweep runs the grid through sweep.Run with the pool width capped at
// maxProcs, then a dedicated twin of every (scenario, ranks) pair. Every
// fault-free cell's checksum must equal its rznone sibling's and the
// twin's; no cell may fail.
func runSweep(tr *tracer, g sweep.Grid) (outcome, *sweep.Result, error) {
	var o outcome
	cellsDone := 0
	var cellAt []float64
	start := time.Now()
	res, err := tr.runSweep(func() (*sweep.Result, error) {
		return sweep.Run(sweep.Options{Grid: g, Jobs: maxProcs(), OnCell: func(sweep.CellResult) {
			cellsDone++
			cellAt = append(cellAt, time.Since(start).Seconds())
		}})
	})
	if err != nil {
		return o, nil, err
	}
	if cellsDone != len(res.Cells) {
		return o, res, fmt.Errorf("OnCell saw %d of %d cells", cellsDone, len(res.Cells))
	}
	tr.instants("sweep.OnCell", cellAt)

	twins := map[string]apps.Result{}
	for _, scen := range g.Scenarios {
		for _, n := range g.Ranks {
			// The twin: a dedicated cluster, no adaptation, overlap on as
			// the smoke grid pins it.
			r, err := sweepWorld(tr, scen+" dedicated", g, scen, true, cluster.Uniform(n), core.Config{Adapt: false})
			if err != nil {
				return o, res, fmt.Errorf("%s/r%d dedicated twin: %w", scen, n, err)
			}
			twins[fmt.Sprintf("%s/%d", scen, n)] = r
			o.add(fmt.Sprintf("twin %s/%d", scen, n), r)
		}
	}

	none := map[string]sweep.CellStats{}
	failed := 0
	for _, c := range res.Cells {
		if c.Err != "" {
			failed++
			continue
		}
		if c.Cell.Resize == "none" {
			none[siblingKey(c.Cell)] = c.Stats
		}
	}
	for _, c := range res.Cells {
		s := c.Stats
		o.fp.add("cell "+c.Key, c.Err, s.Cycles, s.Crashed, s.IterP50, s.IterP90, s.IterP99,
			s.HiddenWireS, s.LostRows, s.Redists, s.Elapsed, s.Checksum, s.CheckInt)
		if c.Err != "" {
			continue
		}
		twin := twins[fmt.Sprintf("%s/%d", c.Cell.Scenario, c.Cell.Ranks)]
		if c.Cell.Fault == "none" {
			sib, ok := none[siblingKey(c.Cell)]
			if !ok || math.Float64bits(sib.Checksum) != math.Float64bits(s.Checksum) {
				return o, res, fmt.Errorf("cell %s: checksum %v != rznone sibling %v", c.Key, s.Checksum, sib.Checksum)
			}
			if math.Float64bits(twin.Checksum) != math.Float64bits(s.Checksum) {
				return o, res, fmt.Errorf("cell %s: checksum %v != dedicated twin %v", c.Key, s.Checksum, twin.Checksum)
			}
		}
		o.makespanS += s.Elapsed
		o.dedRatios = append(o.dedRatios, s.Elapsed/twin.Elapsed)
		o.virt.add("core.redists", float64(s.Redists))
	}
	o.virt.add("sweep.cells", float64(len(res.Cells)))
	o.virt.add("sweep.cells_failed", float64(failed))
	tr.hostValue("sweep.rounds", float64(res.Steps))
	if failed > 0 {
		return o, res, fmt.Errorf("%d of %d sweep cells failed", failed, len(res.Cells))
	}
	return o, res, nil
}

// replaySweep re-runs every cell of a finished sweep as a free-running
// world (no gate) through the same application entry point, with the
// wrapping sink in front of a ring like the engine's, to count the
// telemetry sweep.Run folds away. Pacing never changes virtual time, so
// each replay must reproduce its cell's statistics bit-exactly.
func replaySweep(tr *tracer, g sweep.Grid, res *sweep.Result) error {
	if res == nil {
		return fmt.Errorf("replay: the sweep did not run")
	}
	for _, c := range res.Cells {
		cell := c.Cell
		spec := cellSpec(g, cell)
		base := core.DefaultConfig()
		base.Drop = core.DropAlways
		base.GracePeriod = cell.GP
		base.Replicate = cell.Replicate
		if cell.RMA {
			base.RedistMode = core.RedistRMA
			base.ReplicaRMA = true
		}
		base.Telemetry = telemetry.NewRing(g.RingCap)
		r, err := sweepWorld(tr, "replay "+c.Key, g, cell.Scenario, cell.Overlap, spec, base)
		if err != nil {
			return fmt.Errorf("replay %s: %w", c.Key, err)
		}
		s := c.Stats
		if math.Float64bits(r.Elapsed) != math.Float64bits(s.Elapsed) ||
			math.Float64bits(r.Checksum) != math.Float64bits(s.Checksum) || r.Redists != s.Redists {
			return fmt.Errorf("replay %s: elapsed/checksum/redists %v/%v/%d != swept %v/%v/%d",
				c.Key, r.Elapsed, r.Checksum, r.Redists, s.Elapsed, s.Checksum, s.Redists)
		}
		tr.virt.add("core.redist_virt_s", redistSeconds(r))
		for _, st := range r.Stats {
			tr.virt.add("mpi.p2p_msgs", float64(st.SentMsgs))
			tr.virt.add("mpi.p2p_bytes", float64(st.SentBytes))
			tr.virt.add("core.refresh_stall_virt_s", st.RefreshStall.Seconds())
		}
	}
	return nil
}

// cellSpec is a sweep cell's modelled cluster, as the engine builds it:
// the grid's CP arrival, the crash for crash cells, timed arrivals for the
// grow cells and a second CP just before them for growskew.
func cellSpec(g sweep.Grid, cell sweep.Cell) cluster.Spec {
	spec := cluster.Uniform(cell.Ranks).With(cluster.CycleEvent(g.CPNode, g.CPCycle, +1))
	if cell.Fault == "crash" {
		spec.Faults = append(spec.Faults, fault.CrashAtCycle(g.CrashNode, g.CrashCycle))
	}
	if cell.Resize == "grow" || cell.Resize == "growskew" {
		for i := 0; i < g.ResizeAdd; i++ {
			spec = spec.WithArrival(1.0, g.ResizeCycle)
		}
	}
	if cell.Resize == "growskew" {
		spec = spec.With(cluster.CycleEvent(0, g.ResizeCycle-2, +1))
	}
	return spec
}

// siblingKey names a cell's rznone sibling: the same cell without resize.
func siblingKey(c sweep.Cell) string {
	c.Index, c.Resize = 0, "none"
	return c.Key()
}

// sweepWorld runs one world of a sweep scenario with the grid's workload
// knobs, as the engine configures it.
func sweepWorld(tr *tracer, label string, g sweep.Grid, scen string, overlap bool, spec cluster.Spec, c core.Config) (apps.Result, error) {
	switch scen {
	case "jacobi":
		cfg := jacobi.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
		cfg.Overlap = overlap
		cfg.Core = c
		return tr.runApp(label, &cfg.Core, func() (apps.Result, error) { return jacobi.Run(cluster.New(spec), cfg) })
	case "sor":
		cfg := sor.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
		cfg.Overlap = overlap
		cfg.Core = c
		return tr.runApp(label, &cfg.Core, func() (apps.Result, error) { return sor.Run(cluster.New(spec), cfg) })
	}
	return apps.Result{}, fmt.Errorf("sweep scenario %q has no world here", scen)
}

// runSoak runs the collective soak at one world size through exp.RunScale.
func runSoak(tr *tracer, n int) (outcome, error) {
	var o outcome
	var res *exp.ScaleResult
	var err error
	tr.span(fmt.Sprintf("exp.RunScale n=%d", n), func() {
		res, err = exp.RunScale(exp.ScaleOptions{Sizes: []int{n}, Cycles: soakCycles, VecLen: 64})
	})
	if err != nil {
		return o, err
	}
	for _, sr := range res.Sizes {
		o.fp.add("soak", sr.Ranks, sr.Cycles, sr.Checksum, sr.FinishS)
		o.makespanS += sr.FinishS
		for _, sh := range sr.Shapes {
			o.fp.add("shape", sh.Op, sh.Algorithm, sh.Ranks, sh.Steps, sh.Count, sh.Bytes)
			o.virt.add("mpi.coll_ops", float64(sh.Count))
			o.virt.add("mpi.coll_bytes", float64(sh.Bytes))
		}
	}
	return o, nil
}

// runRMA runs the replica-refresh study's worlds at one size: per-cycle
// buddy replication over paired send/recv and over pairwise one-sided
// epochs (PSCW), and an unreplicated dedicated twin. All three checksums
// must agree.
func runRMA(tr *tracer, spec cluster.Spec, cost float64) (outcome, error) {
	var o outcome
	run := func(label string, replicate, rma bool) (apps.Result, error) {
		cfg := jacobi.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 512, 1024, rmaIters, cost
		cfg.Core = core.DefaultConfig()
		cfg.Core.Drop = core.DropNever
		cfg.Core.Replicate = replicate
		cfg.Core.ReplicaEvery = 1
		cfg.Core.ReplicaRMA = rma
		cfg.Core.ReplicaSync = core.SyncPSCW
		return tr.runApp(label, &cfg.Core, func() (apps.Result, error) { return jacobi.Run(cluster.New(spec), cfg) })
	}
	twin, err := run("jacobi unreplicated", false, false)
	if err != nil {
		return o, err
	}
	o.add("twin", twin)
	for _, m := range []struct {
		label string
		rma   bool
	}{{"paired", false}, {"pscw", true}} {
		r, err := run("jacobi replicated "+m.label, true, m.rma)
		if err != nil {
			return o, fmt.Errorf("%s: %w", m.label, err)
		}
		if err := sameChecksum(r, twin); err != nil {
			return o, fmt.Errorf("%s: %w", m.label, err)
		}
		o.add(m.label, r)
		o.makespanS += r.Elapsed
		o.dedRatios = append(o.dedRatios, r.Elapsed/twin.Elapsed)
	}
	return o, nil
}
