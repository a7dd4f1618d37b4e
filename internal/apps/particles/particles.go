// Package particles implements the paper's unbalanced application: a
// scaled-down MP3D-style particle simulation (§5.1, §5.4) on an R×C grid
// of cells. Particles advect deterministically and bounce off the domain
// walls; the per-row computation cost is proportional to the number of
// particles currently in the row, so iteration times are nonuniform and
// evolve — the case that forces Dyn-MPI to measure *per-iteration* times
// during the grace period rather than assume uniform work.
//
// The particle population is stored in a registered sparse array: row g
// holds its particles as runs of four (column=pid) elements (x, y, vx, vy),
// so redistribution moves particles together with their rows through the
// standard pack/unpack path. Migration between rows is explicit
// application-level communication with the owners of adjacent rows,
// exactly as an MPI particle code would do it.
//
// Iterations are deliberately far below the 10 ms /PROC granularity, which
// forces the runtime onto min-filtered wallclock timing — the mechanism
// Figure 7 evaluates via the grace-period length.
package particles

import (
	"math"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// Config parameterises a particle run.
type Config struct {
	// Rows, Cols give the cell grid (the paper uses 256x256).
	Rows, Cols int
	// Steps is the number of time steps (phase cycles; the paper uses 200).
	Steps int
	// BasePerCell is the initial particle count per cell (paper: 1-2).
	BasePerCell int
	// ExtraTopP0 adds this many particles per cell in the top half of the
	// rows initially owned by P0 (the Figure 7 "Part" parameter; the §5.1
	// experiment doubles P0's particles, i.e. ExtraTopP0 = 2*BasePerCell
	// over the whole block — use ExtraAllP0 for that).
	ExtraTopP0 int
	// ExtraAllP0 adds particles per cell across all of P0's initial rows
	// (the §5.1 "twice as many particles" configuration).
	ExtraAllP0 int
	// Dt is the integration step; |vy|*Dt must stay below one row.
	Dt float64
	// CostPerParticle is the modelled reference cost of one particle
	// update in nanoseconds.
	CostPerParticle float64
	// Seed drives particle initialisation.
	Seed uint64
	// Core configures the Dyn-MPI runtime.
	Core core.Config
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Rows: 128, Cols: 128, Steps: 80,
		BasePerCell: 1, Dt: 0.9,
		CostPerParticle: 400, Seed: 11,
		Core: core.DefaultConfig(),
	}
}

const migrateTag = 21

// particle is the in-flight representation during migration.
type particle struct {
	pid          int32
	x, y, vx, vy float64
}

// move is a particle bound for another row of the same rank.
type move struct {
	g  int
	pt particle
}

// scratch is one rank's step buffers, reused across steps so the steady
// state allocates nothing. Emigrant slices are not kept here: they are
// message payloads the neighbour reads after the sender has moved on, so
// each step allocates them afresh, sized by the previous step's counts.
type scratch struct {
	row        []particle
	local      []move
	nUp, nDown int // emigrant counts of the previous step
}

// Run executes the particle simulation and returns the result. CheckInt is
// an order-independent integer checksum of the final particle states.
func Run(cl *cluster.Cluster, cfg Config) (apps.Result, error) {
	col := apps.NewCollector()
	err := mpi.Run(cl, func(c *mpi.Comm) error {
		rt := core.New(c, cfg.Core)
		ps := rt.RegisterSparse("P", cfg.Rows)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("P", drsd.ReadWrite, 1, 0)
		rt.Commit()

		start := 0
		if rt.Joined() {
			// A mid-run joiner: its rows (particles included) arrived in the
			// admission redistribution Commit just ran, so seeding must not
			// add to them, and the step loop starts at the cycle the world
			// is on.
			start = rt.Cycle()
		} else {
			lo, hi := ph.Bounds()
			seedParticles(ps, cfg, c.Size(), lo, hi)
		}

		var sc scratch
		for t := start; t < cfg.Steps; t++ {
			if rt.BeginCycle() {
				stepOnce(rt, ps, cfg, &sc)
			}
			rt.EndCycle()
		}

		var check float64
		if rt.Participating() {
			lo, hi := ph.Bounds()
			check = rt.AllreduceSum(localChecksum(ps, lo, hi))
		} else {
			check = rt.AllreduceSum(0)
		}
		rt.Finalize()
		col.Report(rt, 0, int64(check))
		return nil
	})
	if err != nil {
		return apps.Result{}, err
	}
	return col.Result(cl.MaxN()), nil
}

// seedParticles populates this rank's initially owned rows. Particle
// initial state is a pure function of (pid), and pids are a pure function
// of (row, cell, slot), so every distribution seeds identically.
func seedParticles(ps *matrix.Sparse, cfg Config, worldSize, lo, hi int) {
	p0hi := (cfg.Rows + worldSize - 1) / worldSize // P0's initial block
	perCell := func(g int) int {
		n := cfg.BasePerCell
		if g < p0hi {
			n += cfg.ExtraAllP0
			if g < p0hi/2 {
				n += cfg.ExtraTopP0
			}
		}
		return n
	}
	for g := lo; g < hi; g++ {
		for cell := 0; cell < cfg.Cols; cell++ {
			for s := 0; s < perCell(g); s++ {
				pid := int32((g*cfg.Cols+cell)*64 + s)
				rng := vclock.NewPRNG(cfg.Seed).Fork(uint64(pid) + 1)
				pt := particle{
					pid: pid,
					x:   float64(cell) + rng.Float64(),
					y:   float64(g) + rng.Float64(),
					vx:  (rng.Float64() - 0.5) * 2,
					vy:  (rng.Float64() - 0.5), // |vy| < 0.5 rows per unit time
				}
				appendParticle(ps, g, pt)
			}
		}
	}
}

func appendParticle(ps *matrix.Sparse, g int, pt particle) {
	ps.Append(g, pt.pid, pt.x)
	ps.Append(g, pt.pid, pt.y)
	ps.Append(g, pt.pid, pt.vx)
	ps.Append(g, pt.pid, pt.vy)
}

// readRow appends row g's particles (groups of four elements) to out.
func readRow(out []particle, ps *matrix.Sparse, g int) []particle {
	e := ps.RowHead(g)
	for e != nil {
		pt := particle{pid: e.Col, x: e.Val}
		e = e.Next()
		pt.y = e.Val
		e = e.Next()
		pt.vx = e.Val
		e = e.Next()
		pt.vy = e.Val
		e = e.Next()
		out = append(out, pt)
	}
	return out
}

// integrate advances one particle by dt, bouncing off the walls of the
// w×h domain. It is a pure function of the particle's own state, so
// results are bit-identical regardless of which rank computes it.
func integrate(pt particle, dt, w, h float64) particle {
	pt.x += pt.vx * dt
	pt.y += pt.vy * dt
	if pt.x < 0 {
		pt.x, pt.vx = -pt.x, -pt.vx
	}
	if pt.x >= w {
		pt.x, pt.vx = 2*w-pt.x, -pt.vx
	}
	if pt.y < 0 {
		pt.y, pt.vy = -pt.y, -pt.vy
	}
	if pt.y >= h {
		pt.y, pt.vy = 2*h-pt.y, -pt.vy
	}
	return pt
}

// step advances every owned particle one time step, migrating particles
// that cross row boundaries: local moves are reinserted directly; emigrants
// travel to the owners of the adjacent rows (one exchange per neighbour per
// step, possibly empty — both sides derive the pairing from the current
// distribution, so matching is deterministic). sc holds the rank's reused
// buffers.
func stepOnce(rt *core.Runtime, ps *matrix.Sparse, cfg Config, sc *scratch) {
	me := rt.Comm().Rank()
	lo, hi := rt.Dist().RangeOf(me)
	if lo >= hi {
		return
	}
	emUp := make([]particle, 0, sc.nUp)
	emDown := make([]particle, 0, sc.nDown)
	local := sc.local[:0]
	dt, w, h := cfg.Dt, float64(cfg.Cols), float64(cfg.Rows)
	for g := lo; g < hi; g++ {
		sc.row = readRow(sc.row[:0], ps, g)
		pts := sc.row
		ps.ClearRow(g)
		for _, pt := range pts {
			pt = integrate(pt, dt, w, h)
			ng := int(math.Floor(pt.y))
			switch {
			case ng == g:
				appendParticle(ps, g, pt)
			case ng < lo:
				emUp = append(emUp, pt)
			case ng >= hi:
				emDown = append(emDown, pt)
			default:
				local = append(local, move{g: ng, pt: pt})
			}
		}
		rt.ComputeIter(g, vclock.Duration(float64(len(pts))*cfg.CostPerParticle))
	}
	for _, m := range local {
		appendParticle(ps, m.g, m.pt)
	}
	sc.local, sc.nUp, sc.nDown = local, len(emUp), len(emDown)
	// Exchange emigrants with the adjacent block owners.
	comm := rt.Comm()
	up, down := -1, -1
	if lo > 0 {
		up = rt.Dist().Owner(lo - 1)
	}
	if hi < cfg.Rows {
		down = rt.Dist().Owner(hi)
	}
	// Both receives are posted before either send, so the exchange is
	// deadlock-free by construction — it no longer relies on eager
	// buffering absorbing both outgoing messages — and the two directions
	// overlap. The injection charges and arrival stamps are identical to
	// the former Send/Send/Recv/Recv sequence, so virtual timing is
	// unchanged.
	var recvUp, recvDown *mpi.Request
	var sends [2]*mpi.Request
	if up >= 0 {
		recvUp = comm.Irecv(up, migrateTag)
	}
	if down >= 0 {
		recvDown = comm.Irecv(down, migrateTag)
	}
	if up >= 0 {
		sends[0] = comm.Isend(up, migrateTag, emUp, 40*len(emUp)+8)
	}
	if down >= 0 {
		sends[1] = comm.Isend(down, migrateTag, emDown, 40*len(emDown)+8)
	}
	insert := func(pts []particle) {
		for _, pt := range pts {
			g := int(math.Floor(pt.y))
			appendParticle(ps, g, pt)
		}
	}
	if recvUp != nil {
		p, _ := comm.Wait(recvUp)
		insert(p.([]particle))
	}
	if recvDown != nil {
		p, _ := comm.Wait(recvDown)
		insert(p.([]particle))
	}
	comm.Waitall(sends[:])
}

// localChecksum folds every owned particle into an order-independent
// integer (kept below 2^30 per particle so the float64 allreduce is exact
// up to ~2^53 total).
func localChecksum(ps *matrix.Sparse, lo, hi int) float64 {
	var sum int64
	var pts []particle
	for g := lo; g < hi; g++ {
		pts = readRow(pts[:0], ps, g)
		for _, pt := range pts {
			h := uint64(pt.pid) * 2654435761
			h ^= math.Float64bits(pt.x) * 31
			h ^= math.Float64bits(pt.y) * 37
			h ^= math.Float64bits(pt.vx) * 41
			h ^= math.Float64bits(pt.vy) * 43
			sum += int64(h & (1<<30 - 1))
		}
	}
	return float64(sum)
}

// Census reports the total particle count owned by rows [lo,hi) — used by
// tests to assert conservation.
func Census(ps *matrix.Sparse, lo, hi int) int {
	n := 0
	for g := lo; g < hi; g++ {
		n += ps.RowLen(g) / 4
	}
	return n
}
