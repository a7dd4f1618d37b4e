package core

import (
	"fmt"
	"sync"

	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// commitSlab unpacks one received slab into a's resident window — charging
// the same virtual touches as the per-row formulation (PutRows/UnpackRows
// price every row) — and recycles the slab.
func (rt *Runtime) commitSlab(a *regArray, lo, hi int, payload any) {
	if a.dense != nil {
		slab, ok := payload.(*denseSlab)
		if !ok || slab.rows != hi-lo {
			panic(fmt.Sprintf("core: bad dense redistribution payload for %q", a.name))
		}
		a.dense.PutRows(lo, slab.data)
		putDenseSlab(slab)
	} else {
		slab, ok := payload.(*sparseSlab)
		if !ok || slab.p.Rows() != hi-lo {
			panic(fmt.Sprintf("core: bad sparse redistribution payload for %q", a.name))
		}
		a.sparse.UnpackRows(lo, &slab.p)
		putSparseSlab(slab)
	}
}

// Redistribution payloads travel as contiguous slabs — one allocation per
// (array, transfer) instead of one per row — recycled through process-wide
// pools.
//
// Pool invariants:
//
//   - Ownership travels with the message: the sender Gets a slab, packs it,
//     and Sends it; from that point the slab belongs to the receiver, which
//     Puts it back after unpacking. The sender never touches a slab after
//     Send, and nothing else may retain a reference into a slab's backing
//     storage (matrix.Dense.PutRows / Sparse.UnpackRows copy out of the
//     slab precisely so the window never aliases pooled memory).
//   - Slabs are resized with cap-preserving reslices, so steady-state
//     redistribution reaches a fixed point where Get returns buffers big
//     enough to need no growth: zero heap allocation per redistribution.
//   - All packing/unpacking is host-side batching only. The virtual costs
//     (ChargeTouch amounts and order, AdjustResident deltas, message bytes)
//     replicate the per-row formulation exactly, so golden traces are
//     byte-identical to the unbatched implementation.
var (
	denseSlabPool  = sync.Pool{New: func() any { return new(denseSlab) }}
	sparseSlabPool = sync.Pool{New: func() any { return new(sparseSlab) }}
)

// denseSlab is one dense transfer's rows, packed back to back.
type denseSlab struct {
	rows int
	data []float64
}

// sparseSlab is one sparse transfer's rows in batched packed form.
type sparseSlab struct {
	p matrix.PackedRows
}

func getDenseSlab(rows, rowLen int) *denseSlab {
	s := denseSlabPool.Get().(*denseSlab)
	n := rows * rowLen
	if cap(s.data) < n {
		s.data = make([]float64, n)
	} else {
		s.data = s.data[:n]
	}
	s.rows = rows
	return s
}

func putDenseSlab(s *denseSlab) {
	s.rows = 0
	denseSlabPool.Put(s)
}

func getSparseSlab() *sparseSlab {
	s := sparseSlabPool.Get().(*sparseSlab)
	s.p.Reset()
	return s
}

func putSparseSlab(s *sparseSlab) {
	sparseSlabPool.Put(s)
}

// redistOut is one outgoing transfer staged during the extraction phase.
// lo is the transfer's first global row — the RMA commit path derives the
// destination window offset from it.
type redistOut struct {
	to    int
	lo    int
	dense *denseSlab
	spars *sparseSlab
	rows  int
	bytes int
}

// redistIn is one incoming transfer staged by the nonblocking drain: the
// schedule row range and the posted receive. The payload stays inside the
// request until the deterministic commit loop waits on it — unpacking
// charges virtual time (PutRows/UnpackRows touch rows), so it must happen
// in commit order, never in physical arrival order.
type redistIn struct {
	lo, hi int
	req    *mpi.Request
}

// redistDrain is the message-passing Phase-3 drain. Production always runs
// drainNonblocking; the equivalence suites swap in the serial blocking
// reference drain (a test file) to pin the pipelined engine's
// byte-identical contract against it.
var redistDrain = (*Runtime).drainNonblocking

// redistHarvestShuffle, when non-nil, replaces the Waitany harvest loop of
// the nonblocking drain: it receives the posted requests and must claim
// each exactly once, in any order it likes. The randomized-order
// equivalence suite uses it to force adversarial physical harvest orders
// and assert the committed result is unchanged. Test-only (set via
// export_test.go); nil in production.
var redistHarvestShuffle func(c *mpi.Comm, reqs []*mpi.Request)

// arrivalLess orders the overlap commit: arrived transfers by (arrival
// stamp, schedule index), dead-sender transfers (no arrival) last in
// schedule order. Both keys are virtual-time deterministic, so the commit
// order is too.
func arrivalLess(ins []redistIn, a, b int) bool {
	ta, oka := ins[a].req.Arrival()
	tb, okb := ins[b].req.Arrival()
	if oka != okb {
		return oka
	}
	if oka && ta != tb {
		return ta < tb
	}
	return a < b
}

// applyDistribution executes a redistribution to newDist (§4.4): for every
// registered array each node (1) determines ownership from the DRSDs,
// (2) extracts rows that leave it, (3) resizes its resident window —
// deallocating unneeded memory, allocating new, updating pointers for data
// that stays — and (4) exchanges exactly the rows the schedule demands.
// All active ranks call this collectively with identical arguments.
func (rt *Runtime) applyDistribution(newDist *drsd.Block) {
	if rt.cfg.ReplicaRMA {
		// Settle the replica epoch opened at the last refresh point before
		// any rows move: the group is intact here, so the wait succeeds and
		// the replicas commit at their pre-redistribution ranges.
		rt.closeReplicaEpoch()
	}
	rt.record(EvRedistStart, 0, "")
	me := rt.comm.Rank()
	var bytesSent, bytesRecv int64
	var moves []telemetry.ArrayMove
	if rt.sink != nil {
		moves = make([]telemetry.ArrayMove, 0, len(rt.order))
	}
	lost0 := rt.lostRows
	stall0 := rt.comm.RecvStall
	olo, ohi := rt.dist.RangeOf(me)

	// Resized-in ranks own nothing under the old distribution; in RMA mode
	// their incoming dense transfers are pulled one-sided (Get under PSCW,
	// rmaFetchArray) instead of pushed, so established owners never stall
	// serving joiner state.
	var newcomer map[int]bool
	if rt.cfg.RedistMode == RedistRMA {
		old := rt.dist.Ranks()
		inOld := make(map[int]bool, len(old))
		for _, r := range old {
			inOld[r] = true
		}
		for _, r := range newDist.Ranks() {
			if !inOld[r] {
				if newcomer == nil {
					newcomer = map[int]bool{}
				}
				newcomer[r] = true
			}
		}
	}

	for _, name := range rt.order {
		a := rt.arrays[name]
		// Owned-only arrays take the resize-aware diff schedule: it emits
		// exactly the owner-changed contiguous windows ScheduleWindowsInto
		// would (byte-identical transfers, same order — gap coverage of an
		// ownership range degenerates to the ownership delta when no ghost
		// access widens the window), computed per-rank from the two block
		// boundaries instead of walking every access pattern.
		if drsd.OwnedOnly(a.accesses) {
			rt.schedBuf = drsd.ScheduleDiffInto(rt.schedBuf[:0], rt.dist, newDist)
		} else {
			rt.schedBuf = drsd.ScheduleWindowsInto(rt.schedBuf[:0], rt.dist, newDist, a.accesses)
		}
		sched := rt.schedBuf

		// Split off joiner-bound transfers: the fetch protocol moves them
		// before the push phase, and the push paths run on the remainder.
		// The split is schedule-derived, so every member computes it
		// identically (the fetch windows register collectively).
		rest := sched
		fetch := false
		if len(newcomer) > 0 && a.dense != nil {
			for _, tr := range sched {
				if newcomer[tr.To] {
					fetch = true
					break
				}
			}
		}
		if fetch {
			rest = rt.restBuf[:0]
			for _, tr := range sched {
				if !newcomer[tr.To] {
					rest = append(rest, tr)
				}
			}
			rt.restBuf = rest
		}

		// Phase 1: extract outgoing payloads before the window changes.
		nlo, nhi := newDist.RangeOf(me)
		wlo, whi := drsd.Window(a.accesses, nlo, nhi, rt.n)
		// Destination multiplicity distinguishes a row's final destination
		// (a move: the row's storage leaves with it) from earlier ones (a
		// copy). Every transfer with From == me covers rows this rank owns
		// under the old distribution, so a flat slice indexed by row offset
		// into [olo,ohi) replaces the former map.
		if n := ohi - olo; cap(rt.destBuf) < n {
			rt.destBuf = make([]int, n)
		} else {
			rt.destBuf = rt.destBuf[:n]
		}
		destCount := rt.destBuf
		clear(destCount)
		for _, tr := range sched {
			if tr.From != me {
				continue
			}
			for g := tr.Lo; g < tr.Hi; g++ {
				destCount[g-olo]++
			}
		}
		outs := rt.outsBuf[:0]
		fetchOuts := rt.fetchOutsBuf[:0]
		fbuf := rt.fetchBuf[:0]
		if fetch {
			total := 0
			for _, tr := range sched {
				if tr.From == me && newcomer[tr.To] {
					total += (tr.Hi - tr.Lo) * a.dense.RowLen
				}
			}
			if cap(fbuf) < total {
				fbuf = make([]float64, total)
			} else {
				fbuf = fbuf[:total]
			}
		}
		foff := 0
		for _, tr := range sched {
			if tr.From != me {
				continue
			}
			m := redistOut{to: tr.To, lo: tr.Lo, rows: tr.Hi - tr.Lo}
			if fetch && newcomer[tr.To] {
				// Joiner-bound rows pack back to back into the buffer the
				// fetch window will expose — same extraction touches as a
				// pushed slab; the joiner derives the offsets from the same
				// schedule order.
				a.dense.CopyRowsTo(fbuf[foff:foff+m.rows*a.dense.RowLen], tr.Lo, tr.Hi)
				for g := tr.Lo; g < tr.Hi; g++ {
					keep := g >= wlo && g < whi
					destCount[g-olo]--
					if keep || destCount[g-olo] > 0 || a.dense.Scheme() == matrix.Contiguous {
						rt.node.ChargeTouch(a.dense.RowBytes())
					}
				}
				m.bytes = m.rows * int(a.dense.RowBytes())
				foff += m.rows * a.dense.RowLen
				fetchOuts = append(fetchOuts, m)
				continue
			}
			if a.dense != nil {
				slab := getDenseSlab(m.rows, a.dense.RowLen)
				a.dense.CopyRowsTo(slab.data, tr.Lo, tr.Hi)
				// Virtual cost per row, identical to the per-row path: a row
				// that stays resident here or still has further destinations
				// was copied out (one RowBytes touch); a leaving row's final
				// destination was a move — free under Projection, a charged
				// copy under Contiguous (TakeRow semantics).
				for g := tr.Lo; g < tr.Hi; g++ {
					keep := g >= wlo && g < whi
					destCount[g-olo]--
					if keep || destCount[g-olo] > 0 || a.dense.Scheme() == matrix.Contiguous {
						rt.node.ChargeTouch(a.dense.RowBytes())
					}
				}
				m.dense = slab
				m.bytes = m.rows * int(a.dense.RowBytes())
			} else {
				slab := getSparseSlab()
				a.sparse.PackRowsTo(&slab.p, tr.Lo, tr.Hi)
				m.spars = slab
				m.bytes = slab.p.WireBytes()
			}
			outs = append(outs, m)
		}
		rt.outsBuf = outs
		rt.fetchOutsBuf = fetchOuts
		rt.fetchBuf = fbuf

		// Phase 2: resize the resident window (reuses retained rows; the
		// allocation scheme determines the cost).
		if a.dense != nil {
			a.dense.SetWindow(wlo, whi)
		} else {
			a.sparse.SetWindow(wlo, whi)
		}

		// Phase 3: exchange exactly the rows the schedule demands. Dense
		// arrays under RedistRMA land one-sided; everything else takes the
		// nonblocking drain. Either way the commit — the only part that
		// advances virtual time — runs in a deterministic order.
		mv := telemetry.ArrayMove{Name: name}
		if fetch {
			// Joiner-bound transfers move first, one-sided: sources expose
			// their packed slabs, joiners pull with Get under PSCW. Every
			// member participates (the fetch windows register collectively).
			rt.rmaFetchArray(a, sched, newDist, newcomer, fetchOuts, fbuf, &mv, &bytesSent, &bytesRecv)
		}
		var rows int
		var sent, recv int64
		if rt.cfg.RedistMode == RedistRMA && a.dense != nil {
			rows, sent, recv = rt.rmaRedistArray(a, rest, newDist, outs)
		} else {
			rows, sent, recv = redistDrain(rt, a, rest, outs)
		}
		mv.Rows += rows
		mv.Bytes += sent
		bytesSent += sent
		bytesRecv += recv
		if rt.sink != nil && (mv.Rows > 0 || mv.Bytes > 0) {
			moves = append(moves, mv)
		}
	}

	rt.dist = newDist
	if err := rt.comm.BarrierErr(rt.group); err != nil {
		rt.absorbDead(rt.deadOf(err))
	}
	rt.events = append(rt.events, Event{
		Kind: EvRedistEnd, Cycle: rt.cycle, Time: rt.node.Now(),
		Bytes: bytesSent + bytesRecv, BytesSent: bytesSent, BytesRecv: bytesRecv,
		Counts: newDist.Counts(),
		Stall:  rt.comm.RecvStall - stall0,
	})
	if rt.sink != nil {
		rows, sent := 0, int64(0)
		for _, mv := range moves {
			rows += mv.Rows
			sent += mv.Bytes
		}
		rt.sink.Emit(telemetry.RedistRecord{
			Base:       rt.stamp(telemetry.KindRedist),
			Arrays:     moves,
			RowsSent:   rows,
			BytesSent:  sent,
			BytesRecv:  bytesRecv,
			BytesMoved: sent + bytesRecv,
			Counts:     newDist.Counts(),
			LostRows:   rt.lostRows - lost0,
		})
	}
	rt.refreshReplicas()
}

// drainNonblocking runs Phase 3 of one array's redistribution over paired
// messages and reports the rows and bytes it shipped and the bytes it
// committed: every Irecv is posted up front, the outgoing slabs are Isent,
// completions are harvested physically with Waitany, and the commit runs
// in deterministic order — schedule order with replay-priced Waits
// (RedistPipelined, byte-identical to a serial blocking drain) or arrival
// order (RedistOverlap).
func (rt *Runtime) drainNonblocking(a *regArray, rest []drsd.Transfer, outs []redistOut) (rows int, sent, recv int64) {
	me := rt.comm.Rank()
	tag := tagRedist + a.index
	// Post all Irecvs up front (no virtual charge).
	ins := rt.insBuf[:0]
	for _, tr := range rest {
		if tr.To != me {
			continue
		}
		ins = append(ins, redistIn{lo: tr.Lo, hi: tr.Hi, req: rt.comm.Irecv(tr.From, tag)})
	}
	rt.insBuf = ins
	// Isend the outgoing slabs: the same injection charges, in the same
	// order, as a blocking drain's Sends. Send requests complete at post;
	// Waitall only recycles them.
	reqs := rt.reqBuf[:0]
	for i := range outs {
		m := &outs[i]
		if m.dense != nil {
			reqs = append(reqs, rt.comm.Isend(m.to, tag, m.dense, m.bytes))
			m.dense = nil
		} else {
			reqs = append(reqs, rt.comm.Isend(m.to, tag, m.spars, m.bytes))
			m.spars = nil
		}
		rows += m.rows
		sent += int64(m.bytes)
	}
	rt.comm.Waitall(reqs)
	// Harvest completions physically, in whatever order they arrive. No
	// clock moves here: Waitany only claims.
	reqs = reqs[:0]
	for k := range ins {
		reqs = append(reqs, ins[k].req)
	}
	rt.reqBuf = reqs
	if redistHarvestShuffle != nil {
		redistHarvestShuffle(rt.comm, reqs)
	} else {
		for range reqs {
			rt.comm.Waitany(reqs)
		}
	}
	// Commit deterministically. Pipelined replays the blocking schedule
	// order with replay-priced Waits — clocks, traces and checksums stay
	// byte-identical. Overlap commits in arrival order, trading trace
	// equivalence for lower stall.
	order := rt.ordBuf[:0]
	for k := range ins {
		order = append(order, k)
	}
	rt.ordBuf = order
	if rt.cfg.RedistMode == RedistOverlap {
		// Insertion sort by (arrival, schedule index): transfer counts per
		// array are small and the scratch is reused.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && arrivalLess(ins, order[j], order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	for _, k := range order {
		in := &ins[k]
		var payload any
		var st mpi.Status
		var err error
		if rt.cfg.RedistMode == RedistOverlap {
			payload, st, err = rt.comm.WaitErr(in.req)
		} else {
			payload, st, err = rt.comm.WaitReplayErr(in.req)
		}
		in.req = nil
		if err != nil {
			rt.absorbDead(rt.deadOf(err))
			rt.loseRows(a, in.lo, in.hi)
			continue
		}
		recv += int64(st.Bytes)
		rt.commitSlab(a, in.lo, in.hi, payload)
	}
	return rows, sent, recv
}
