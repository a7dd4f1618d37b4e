package repro_test

// One benchmark per table/figure of the paper (scaled-down cells, so the
// full -bench=. run stays fast), plus micro-benchmarks of the substrates.
// Absolute wall-clock numbers measure the *simulator*; the virtual-time
// results inside each experiment are what reproduce the paper (run
// cmd/dynexp for those).

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/cg"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/particles"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/drsd"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// loaded4 is the canonical scenario: 4 nodes, one CP on node 1 at cycle 10.
func loaded4() cluster.Spec {
	return cluster.Uniform(4).With(cluster.CycleEvent(1, 10, +1))
}

func benchResult(b *testing.B, res apps.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if res.Redists == 0 {
		b.Fatal("benchmark scenario did not adapt")
	}
}

// --- Figure 4: one cell per application ------------------------------------

func BenchmarkFig4Jacobi(b *testing.B) {
	b.ReportAllocs()
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 128, 128, 80, 10e3
	cfg.Overlap = true // nonblocking halos: fewer physical blocking handshakes
	for i := 0; i < b.N; i++ {
		res, err := jacobi.Run(cluster.New(loaded4()), cfg)
		benchResult(b, res, err)
	}
}

func BenchmarkFig4SOR(b *testing.B) {
	b.ReportAllocs()
	cfg := sor.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 128, 128, 80, 10e3
	cfg.Overlap = true
	for i := 0; i < b.N; i++ {
		res, err := sor.Run(cluster.New(loaded4()), cfg)
		benchResult(b, res, err)
	}
}

func BenchmarkFig4CG(b *testing.B) {
	b.ReportAllocs()
	cfg := cg.DefaultConfig()
	cfg.N, cfg.Iters, cfg.CostPerNnz = 600, 60, 20e3
	for i := 0; i < b.N; i++ {
		res, err := cg.Run(cluster.New(loaded4()), cfg)
		benchResult(b, res, err)
	}
}

func BenchmarkFig4Particles(b *testing.B) {
	b.ReportAllocs()
	cfg := particles.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Steps, cfg.CostPerParticle = 64, 64, 80, 30e3
	cfg.ExtraAllP0 = 1
	spec := cluster.Uniform(4).With(cluster.CycleEvent(0, 10, +1))
	for i := 0; i < b.N; i++ {
		res, err := particles.Run(cluster.New(spec), cfg)
		benchResult(b, res, err)
	}
}

// --- §5.1 CG case study ------------------------------------------------------

func BenchmarkCGTable(b *testing.B) {
	b.ReportAllocs()
	cfg := cg.DefaultConfig()
	cfg.N, cfg.Iters, cfg.CostPerNnz = 600, 60, 20e3
	cfg.Core.Drop = core.DropNever
	for i := 0; i < b.N; i++ {
		res, err := cg.Run(cluster.New(loaded4()), cfg)
		benchResult(b, res, err)
	}
}

// --- Figure 5: multiple redistribution points -------------------------------

func BenchmarkFig5ShortExecution(b *testing.B) {
	b.ReportAllocs()
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 128, 512, 90, 3e3
	cfg.Core.Drop = core.DropNever
	spec := cluster.Uniform(4).
		With(cluster.CycleEvent(1, 30, +1)).
		With(cluster.CycleEvent(1, 60, -1))
	for i := 0; i < b.N; i++ {
		res, err := jacobi.Run(cluster.New(spec), cfg)
		benchResult(b, res, err)
	}
}

// --- Figure 6: node removal --------------------------------------------------

func BenchmarkFig6KeepVsDrop(b *testing.B) {
	b.ReportAllocs()
	cfg := sor.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 128, 256, 60, 6e3
	spec := cluster.Uniform(8).With(cluster.TimeEvent(4, 0, +1))
	for i := 0; i < b.N; i++ {
		keep := cfg
		keep.Core = core.DefaultConfig()
		keep.Core.Drop = core.DropNever
		res, err := sor.Run(cluster.New(spec), keep)
		benchResult(b, res, err)
		drop := cfg
		drop.Core = core.DefaultConfig()
		drop.Core.Drop = core.DropAlways
		res, err = sor.Run(cluster.New(spec), drop)
		benchResult(b, res, err)
	}
}

// --- Figure 7: grace periods -------------------------------------------------

func BenchmarkFig7GracePeriods(b *testing.B) {
	b.ReportAllocs()
	cfg := particles.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Steps, cfg.CostPerParticle = 64, 48, 120, 5e3
	cfg.ExtraTopP0 = 10
	cfg.Core.Drop = core.DropNever
	spec := cluster.Uniform(8).With(cluster.CycleEvent(0, 10, +1))
	for i := 0; i < b.N; i++ {
		for _, gp := range []int{1, 5} {
			c := cfg
			c.Core.GracePeriod = gp
			res, err := particles.Run(cluster.New(spec), c)
			benchResult(b, res, err)
		}
	}
}

// --- §4.1 allocation comparison ----------------------------------------------

func BenchmarkAllocProjectionGrow(b *testing.B) {
	b.ReportAllocs()
	benchAllocGrow(b, matrix.Projection)
}

func BenchmarkAllocContiguousGrow(b *testing.B) {
	b.ReportAllocs()
	benchAllocGrow(b, matrix.Contiguous)
}

func benchAllocGrow(b *testing.B, scheme matrix.Alloc) {
	for i := 0; i < b.N; i++ {
		d := matrix.NewDense("A", 2048, 256, scheme, nil)
		d.SetWindow(0, 1024)
		for w := 1025; w <= 2048; w += 64 {
			d.SetWindow(0, w)
		}
	}
}

// --- §4.3 micro-benchmarks -----------------------------------------------------

func BenchmarkMicrobenchPairFraction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f := distribution.MeasurePairFraction(1, 16); f <= 0 || f > 0.5 {
			b.Fatalf("fraction %v out of range", f)
		}
	}
}

func BenchmarkSuccessiveBalancing(b *testing.B) {
	b.ReportAllocs()
	nodes := make([]distribution.Node, 32)
	for i := range nodes {
		nodes[i] = distribution.Node{Rank: i, Power: 1}
	}
	nodes[7].Load = 2
	nodes[19].Load = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distribution.SuccessiveBalancingFractions(nodes, 1.0, 0.01, nil)
	}
}

func BenchmarkPartitionWeighted(b *testing.B) {
	b.ReportAllocs()
	costs := make([]float64, 16384)
	for i := range costs {
		costs[i] = float64(i%7 + 1)
	}
	fr := []float64{0.1, 0.2, 0.25, 0.15, 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distribution.PartitionWeighted(costs, fr)
	}
}

// --- substrate micro-benchmarks -----------------------------------------------

func BenchmarkMPISendRecv(b *testing.B) {
	b.ReportAllocs()
	payload := make([]float64, 1024)
	// Box the payload once: Send takes `any`, and re-boxing a slice on every
	// call would charge the benchmark one allocation that real hot loops can
	// (and should) hoist exactly like this.
	var boxed any = payload
	bytes := mpi.F64Bytes(len(payload))
	err := mpi.Run(cluster.New(cluster.Uniform(2)), func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, boxed, bytes)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMPISendRecvFaults measures the liveness-check overhead the
// failure machinery adds to the hot path: a fault set is armed (a far-future
// timed crash plus message rules on an unrelated link) so every send and
// receive runs the fault polls, but none ever fires. Must stay 0 allocs/op
// and within the benchgate window of BenchmarkMPISendRecv.
func BenchmarkMPISendRecvFaults(b *testing.B) {
	b.ReportAllocs()
	payload := make([]float64, 1024)
	var boxed any = payload
	bytes := mpi.F64Bytes(len(payload))
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{
		fault.CrashAt(0, vclock.Time(vclock.FromSeconds(1e6))),
		fault.DropMsgs(0, 2, 1<<30, 1),
	}
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, boxed, bytes)
			}
		case 1:
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIsendIrecv prices one nonblocking exchange cycle
// (Irecv/Isend/Wait on both sides). The request objects are pooled, so the
// steady state must stay at 0 allocs/op: the bench gate fails any rise above
// a zero baseline.
func BenchmarkIsendIrecv(b *testing.B) {
	b.ReportAllocs()
	payload := make([]float64, 1024)
	var boxed any = payload
	bytes := mpi.F64Bytes(len(payload))
	err := mpi.Run(cluster.New(cluster.Uniform(2)), func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < b.N; i++ {
			rq := c.Irecv(peer, 0)
			snd := c.Isend(peer, 0, boxed, bytes)
			c.Wait(rq)
			c.Wait(snd) // free for sends; recycles the request
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRedistPipeline exercises the pipelined Phase 3 drain end to end:
// an adaptive jacobi run that redistributes twice (load arrives, then
// leaves), so each iteration pays several full harvest/replay commits.
func BenchmarkRedistPipeline(b *testing.B) {
	b.ReportAllocs()
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 128, 512, 90, 3e3
	cfg.Core.Drop = core.DropNever
	spec := cluster.Uniform(4).
		With(cluster.CycleEvent(1, 30, +1)).
		With(cluster.CycleEvent(1, 60, -1))
	for i := 0; i < b.N; i++ {
		res, err := jacobi.Run(cluster.New(spec), cfg)
		benchResult(b, res, err)
	}
}

// BenchmarkHaloOverlap isolates the double-buffered halo path: a
// non-adaptive jacobi run with Overlap on, so the loop body is pure
// compute + HaloExchangeOverlap with no decision machinery.
func BenchmarkHaloOverlap(b *testing.B) {
	b.ReportAllocs()
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 128, 128, 80, 10e3
	cfg.Overlap = true
	cfg.Core.Adapt = false
	for i := 0; i < b.N; i++ {
		res, err := jacobi.Run(cluster.New(cluster.Uniform(4)), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Elapsed <= 0 {
			b.Fatal("run did not advance virtual time")
		}
	}
}

func BenchmarkMPIAllreduce8(b *testing.B) {
	b.ReportAllocs()
	err := mpi.Run(cluster.New(cluster.Uniform(8)), func(c *mpi.Comm) error {
		g := c.World().AllGroup()
		v := []float64{float64(c.Rank())}
		for i := 0; i < b.N; i++ {
			c.AllreduceF64s(g, v, mpi.Sum)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRedistributionSchedule(b *testing.B) {
	b.ReportAllocs()
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	old := drsd.EqualBlock(ranks, 16384)
	counts := []int{1000, 3000, 2000, 2500, 1500, 2000, 2384, 2000}
	nw := drsd.NewBlock(ranks, counts)
	acc := []drsd.Access{{Array: "A", Step: 1, Off: 0}, {Array: "A", Step: 1, Off: -1}, {Array: "A", Step: 1, Off: 1}}
	var buf []drsd.Transfer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = drsd.ScheduleWindowsInto(buf[:0], old, nw, acc)
	}
	if len(buf) == 0 {
		b.Fatal("schedule produced no transfers")
	}
}

// BenchmarkResizeSchedule prices the resize fast path: the diff schedule
// over a 6→8-rank grow (the elastic-resize shape — joiners own no rows yet,
// every block boundary shifts) against the windowed schedule computing the
// same owned-only transfers.
func BenchmarkResizeSchedule(b *testing.B) {
	oldRanks := []int{0, 1, 2, 3, 4, 5}
	newRanks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	old := drsd.EqualBlock(oldRanks, 16384)
	nw := drsd.EqualBlock(newRanks, 16384)
	owned := []drsd.Access{{Array: "A", Step: 1, Off: 0}}
	var buf []drsd.Transfer
	b.Run("diff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = drsd.ScheduleDiffInto(buf[:0], old, nw)
		}
		if len(buf) == 0 {
			b.Fatal("diff schedule produced no transfers")
		}
	})
	b.Run("windows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = drsd.ScheduleWindowsInto(buf[:0], old, nw, owned)
		}
		if len(buf) == 0 {
			b.Fatal("windowed schedule produced no transfers")
		}
	})
}

func BenchmarkSparsePackUnpack(b *testing.B) {
	b.ReportAllocs()
	s := matrix.NewSparse("S", 1, nil)
	s.SetWindow(0, 1)
	for k := 0; k < 256; k++ {
		s.Append(0, int32(k), float64(k))
	}
	d := matrix.NewSparse("D", 1, nil)
	d.SetWindow(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.UnpackRow(0, s.PackRow(0))
	}
}

// BenchmarkSparseRowRewrite is the particle step's row rewrite: a warm
// ClearRow followed by 256 Appends, which reuse the cleared row's elements
// and allocate nothing.
func BenchmarkSparseRowRewrite(b *testing.B) {
	b.ReportAllocs()
	s := matrix.NewSparse("S", 1, nil)
	s.SetWindow(0, 1)
	for k := 0; k < 256; k++ {
		s.Append(0, int32(k), float64(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearRow(0)
		for k := 0; k < 256; k++ {
			s.Append(0, int32(k), float64(k))
		}
	}
}

func BenchmarkNodeCompute(b *testing.B) {
	b.ReportAllocs()
	spec := cluster.Uniform(1).With(cluster.TimeEvent(0, 0, +1))
	n := cluster.New(spec).Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Compute(vclock.Millisecond)
	}
}

// BenchmarkNodeChargeTouch is the sparse store's per-element charge: a warm
// 12-byte touch on an unloaded node, which hits the memoised charge and the
// in-slice Compute shortcut and allocates nothing.
func BenchmarkNodeChargeTouch(b *testing.B) {
	b.ReportAllocs()
	n := cluster.New(cluster.Uniform(1)).Node(0)
	n.ChargeTouch(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ChargeTouch(12)
	}
}

// BenchmarkWorldSetup is a large world's set-up cost: building a 1024-node
// cluster and running an MPI world on it whose ranks return at once.
func BenchmarkWorldSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := mpi.Run(cluster.New(cluster.Uniform(1024)), func(*mpi.Comm) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOverhead prices the observability layer on the canonical
// loaded-4 scenario: the same adaptive jacobi cell with no sink (the
// default — instrumentation must cost nothing) and with a ring sink
// capturing every record. The nil/ring delta is the telemetry budget.
func BenchmarkTelemetryOverhead(b *testing.B) {
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 128, 128, 80, 10e3
	b.Run("nil-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Core.Telemetry = nil
			res, err := jacobi.Run(cluster.New(loaded4()), c)
			benchResult(b, res, err)
		}
	})
	b.Run("ring-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cfg
			ring := telemetry.NewRing(1 << 16)
			c.Core.Telemetry = ring
			res, err := jacobi.Run(cluster.New(loaded4()), c)
			benchResult(b, res, err)
			if ring.Len() == 0 {
				b.Fatal("ring sink captured no records")
			}
		}
	})
}

func BenchmarkEndToEndQuickJacobi(b *testing.B) {
	b.ReportAllocs()
	// Whole-stack sanity benchmark: a complete adaptive run per iteration.
	o := exp.DefaultFig4Options()
	_ = o // options documented; the cell below matches fig4's jacobi/4 shape
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 96, 96, 60, 20e3
	for i := 0; i < b.N; i++ {
		res, err := jacobi.Run(cluster.New(loaded4()), cfg)
		benchResult(b, res, err)
	}
}

// benchCollectives measures the wall-clock cost of the collective engine at
// group size n: each iteration runs a 64-element vector allreduce, a scalar
// allreduce, and a barrier across all n ranks. This is the shape the sharded
// rendezvous engine optimises (lock-free typed deposits, specialized combine
// loops, combiner-tree reduction), and the N256 cell is the bench-gate
// guardrail for its scaling behaviour. On a single-core host the absolute
// numbers are dominated by the goroutine scheduler's yield cost (each of the
// n ranks takes one scheduling quantum per collective, an engine-independent
// floor); see EXPERIMENTS.md for the floor calibration.
func benchCollectives(b *testing.B, n int) {
	b.ReportAllocs()
	err := mpi.Run(cluster.New(cluster.Uniform(n)), func(c *mpi.Comm) error {
		g := c.World().AllGroup()
		buf := make([]float64, 64)
		for i := range buf {
			buf[i] = float64(c.Rank() + i)
		}
		for i := 0; i < b.N; i++ {
			c.AllreduceF64sInto(g, buf, mpi.Sum)
			c.AllreduceSum(g, 1)
			c.Barrier(g)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCollectiveN64(b *testing.B)   { benchCollectives(b, 64) }
func BenchmarkCollectiveN256(b *testing.B)  { benchCollectives(b, 256) }
func BenchmarkCollectiveN1024(b *testing.B) { benchCollectives(b, 1024) }

// BenchmarkPutPSCW measures the one-sided hot loop: rank 0 Puts a 1024-
// element slab into rank 1's window inside one pairwise epoch per
// iteration — rank 1 posts, rank 0 starts, Puts and completes, rank 1
// waits. Put itself must stay 0 allocs/op in steady state (the deposit
// list recycles); the complete/wait pair settles the epoch's accounting.
// Gated by benchgate like the send/recv pair it replaces on the refresh
// path.
func BenchmarkPutPSCW(b *testing.B) {
	b.ReportAllocs()
	payload := make([]float64, 1024)
	err := mpi.Run(cluster.New(cluster.Uniform(2)), func(c *mpi.Comm) error {
		g := c.World().NewGroup([]int{0, 1})
		win := c.WinCreate(g, make(mpi.FlatMem, len(payload)))
		origin, target := []int{0}, []int{1}
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.WinStart(win, target)
				c.Put(win, 1, 0, payload)
				c.WinComplete(win)
			} else {
				c.WinPost(win, origin)
				c.WinWait(win)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplicaRefreshPSCW is the refresh study under the default
// pairwise post/start/complete/wait epochs. On top of the 30% stall bar it
// enforces the scalability fix the pairwise handshake exists for: the
// one-sided makespan must not exceed the paired-transport makespan (the
// regression a full-group barrier per epoch caused at scale).
func BenchmarkReplicaRefreshPSCW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRMA(exp.RMAOptions{Nodes: []int{64}})
		if err != nil {
			b.Fatal(err)
		}
		red := res.MinReduction()
		if red < 0.30 {
			b.Fatalf("stall reduction %.1f%% below the 30%% acceptance bar", red*100)
		}
		if !res.MakespanOK() {
			b.Fatalf("pairwise one-sided makespan exceeds paired: %+v", res.Rows)
		}
		b.ReportMetric(red*100, "stall-reduction-%")
	}
}

// BenchmarkSweepSmoke runs the full CI smoke sweep — 96 deterministic worlds
// multiplexed under one shared virtual-time scheduler — once per iteration.
// It is the end-to-end guardrail for the sweep engine: scheduling overhead,
// heap churn in the world heap, and per-cell aggregation all land here.
func BenchmarkSweepSmoke(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunSweep(exp.DefaultSweepOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) != 96 {
			b.Fatalf("smoke sweep produced %d cells, want 96", len(r.Cells))
		}
	}
}
