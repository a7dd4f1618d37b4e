package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/distribution"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// This file turns detected rank deaths into a forced membership change.
//
// Detection happens at two kinds of sites with different symmetry:
//
//   - Collective errors (mpi.RankFailedError from an *Err collective) are
//     observed by every group member at the same operation, so the observer
//     may immediately shrink the membership (absorbFailure) and retry over
//     the rebuilt group.
//   - Point-to-point errors (RecvErr during a redistribution or replica
//     refresh, a failed pairwise epoch) may be observed by only some ranks
//     mid-protocol. Those sites only record the death (absorbDead); an
//     asymmetric group rebuild there could leave peers waiting on a group
//     the observer abandoned.
//
// Recovery itself (handleFailure) runs in BeginCycle — a point every
// surviving active rank reaches. A dead active rank makes the cycle's load
// exchange fail for every survivor alike, so all of them recover there
// together, whether or not they saw the death earlier; a recorded death
// outside the active set is recovered before the exchange. When the dead
// ranks held data, recovery executes a redistribution that reconstructs
// their rows from buddy replicas (Config.Replicate) or declares them lost.

// LostRange identifies rows of one array that could not be reconstructed
// after a failure: they were zero-filled and the application must treat
// them as reinitialised.
type LostRange struct {
	Array  string
	Lo, Hi int
}

// replica is a rank's copy of its ring predecessor's rows of one dense
// array, refreshed by refreshReplicas (paired send/recv) or through the
// one-sided window machinery in rma.go. data always holds the committed
// replica; stage is the window memory remote Puts land in under ReplicaRMA,
// promoted to data only when the epoch-closing wait settles — so an epoch
// that can no longer settle (the origin died mid-cycle without depositing)
// leaves the committed replica intact.
type replica struct {
	lo, hi int
	data   []float64
	stage  []float64
}

// replicaSlab is the wire form of a replica payload: the row range actually
// covered plus the packed rows. A holder whose replica does not cover a
// requested transfer ships the covered subrange (possibly empty); the
// receiver zero-fills the rest as lost.
type replicaSlab struct {
	lo, hi int
	data   *denseSlab
}

// DeadRanks returns the world ranks this runtime has absorbed as crashed.
func (rt *Runtime) DeadRanks() []int { return append([]int(nil), rt.deadRanks...) }

// LostRows returns the row ranges declared lost by failure recoveries, in
// the order they were recorded.
func (rt *Runtime) LostRows() []LostRange { return append([]LostRange(nil), rt.lost...) }

// RecoveredRows reports how many rows failure recoveries reconstructed from
// buddy replicas.
func (rt *Runtime) RecoveredRows() int { return rt.recoveredRows }

// deadOf extracts the dead ranks from a point-to-point receive error. Any
// other error is unrecoverable and aborts the world.
func (rt *Runtime) deadOf(err error) []int {
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) {
		rt.comm.Abort(err)
	}
	return rf.Ranks
}

// absorbDead records newly detected dead ranks for the next handleFailure
// pass without touching the membership (safe at asymmetric point-to-point
// detection sites).
func (rt *Runtime) absorbDead(ranks []int) {
	for _, r := range ranks {
		if !containsInt(rt.pendingDead, r) && !containsInt(rt.deadRanks, r) {
			rt.pendingDead = append(rt.pendingDead, r)
		}
	}
	sort.Ints(rt.pendingDead)
}

// absorbFailure handles an error from a collective operation: every group
// member observed the identical error at the same operation, so the
// membership shrink is symmetric and the caller may immediately retry over
// the rebuilt group. Non-failure errors abort the world.
func (rt *Runtime) absorbFailure(err error) {
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) {
		rt.comm.Abort(err)
	}
	rt.absorbDead(rf.Ranks)
	rt.shrinkActive(rf.Ranks)
}

// shrinkActive removes dead ranks from the membership and rebuilds the
// collective group. Idempotent: shrinking by an already-absorbed death is a
// no-op (NewGroup is canonical by member list).
func (rt *Runtime) shrinkActive(dead []int) {
	newActive := withoutInts(rt.active, dead)
	if len(newActive) == 0 {
		rt.comm.Abort(fmt.Errorf("core: every active rank is dead (%v)", dead))
	}
	changed := len(newActive) != len(rt.active)
	rt.active = newActive
	rt.removed = withoutInts(rt.removed, dead)
	if changed {
		rt.group = rt.comm.World().NewGroup(rt.active)
	}
}

// handleFailure turns the pending dead set into a forced membership change
// and, when the dead ranks held data, a recovery redistribution. Every
// surviving active rank calls it at the same point (top of BeginCycle, or
// the load-exchange error path), so the collective recovery is symmetric.
func (rt *Runtime) handleFailure() {
	dead := rt.pendingDead
	if len(dead) == 0 {
		return
	}
	rt.pendingDead = nil
	rt.deadRanks = append(rt.deadRanks, dead...)
	sort.Ints(rt.deadRanks)
	rt.record(EvFailure, 0, fmt.Sprintf("dead=%v", dead))

	touchesData := false
	for _, r := range rt.dist.Ranks() {
		if containsInt(dead, r) {
			touchesData = true
		}
	}
	rt.shrinkActive(dead)
	if touchesData {
		// Re-partition over the survivors by relative power (their loads are
		// re-measured next cycle; recovery must not depend on load state the
		// dead rank can no longer contribute to).
		iterCosts := rt.iterCosts
		if iterCosts == nil {
			iterCosts = make([]float64, rt.n)
			for i := range iterCosts {
				iterCosts[i] = 1
			}
		}
		powers := rt.powers()
		nodes := make([]distribution.Node, len(rt.active))
		for i, r := range rt.active {
			nodes[i] = distribution.Node{Rank: r, Power: powers[r]}
		}
		fractions := distribution.RelativePowerFractions(nodes)
		counts := distribution.PartitionWeighted(iterCosts, fractions)
		rt.recoverDistribution(drsd.NewBlock(rt.active, counts), dead)
		rt.redists++
		rt.baseLoads = make([]int, len(rt.active))
		rt.state = stNormal
		rt.collector = nil
		rt.cycTimer = nil
		rt.cycOpen = false
	}
	rt.emitMembership("failure-drop")
}

// recoverDistribution is applyDistribution with one extra concern: transfers
// sourced at a dead rank cannot arrive. When replication is on and the dead
// rank's buddy survives, the buddy serves those transfers from its replica;
// otherwise the rows are declared lost. All surviving active ranks call this
// collectively with identical arguments; rt.dist is still the pre-failure
// distribution (including the dead ranks).
func (rt *Runtime) recoverDistribution(newDist *drsd.Block, dead []int) {
	if rt.cfg.ReplicaRMA {
		// Settle the replica epoch left open by the last refresh before any
		// replica is read: a dead ring neighbour fails the pairwise close
		// and the adoption protocol decides, per array, whether the dead
		// predecessor's deposit landed in full (rma.go).
		rt.closeReplicaEpoch()
	}
	rt.record(EvRedistStart, 0, "failure")
	me := rt.comm.Rank()
	var bytesSent, bytesRecv int64
	var moves []telemetry.ArrayMove
	if rt.sink != nil {
		moves = make([]telemetry.ArrayMove, 0, len(rt.order))
	}
	lost0 := rt.lostRows

	deadSet := map[int]bool{}
	for _, d := range dead {
		deadSet[d] = true
	}
	// The buddy holding a dead rank's replica is its ring successor in the
	// pre-failure distribution — the rank refreshReplicas shipped to.
	holder := map[int]int{}
	oldRanks := rt.dist.Ranks()
	for i, r := range oldRanks {
		if deadSet[r] {
			holder[r] = oldRanks[(i+1)%len(oldRanks)]
		}
	}

	olo, ohi := rt.dist.RangeOf(me)
	for _, name := range rt.order {
		a := rt.arrays[name]
		// Same owned-only diff-schedule fast path as applyDistribution.
		if drsd.OwnedOnly(a.accesses) {
			rt.schedBuf = drsd.ScheduleDiffInto(rt.schedBuf[:0], rt.dist, newDist)
		} else {
			rt.schedBuf = drsd.ScheduleWindowsInto(rt.schedBuf[:0], rt.dist, newDist, a.accesses)
		}
		sched := rt.schedBuf
		tag := tagRecover + a.index

		// Phase 1: extract this rank's own outgoing payloads before the
		// window changes (identical to applyDistribution).
		nlo, nhi := newDist.RangeOf(me)
		wlo, whi := drsd.Window(a.accesses, nlo, nhi, rt.n)
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
		for _, tr := range sched {
			if tr.From != me {
				continue
			}
			m := redistOut{to: tr.To, lo: tr.Lo, rows: tr.Hi - tr.Lo}
			if a.dense != nil {
				slab := getDenseSlab(m.rows, a.dense.RowLen)
				a.dense.CopyRowsTo(slab.data, tr.Lo, tr.Hi)
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

		// Phase 2: resize the resident window.
		if a.dense != nil {
			a.dense.SetWindow(wlo, whi)
		} else {
			a.sparse.SetWindow(wlo, whi)
		}

		// Phase 3: ship own outgoing slabs, then serve the dead ranks'
		// transfers this rank holds replicas for. Sends are eager, so the
		// send-before-receive order makes the exchange deadlock-free.
		mv := telemetry.ArrayMove{Name: name}
		for i := range outs {
			m := &outs[i]
			if m.dense != nil {
				rt.comm.Send(m.to, tag, m.dense, m.bytes)
				m.dense = nil
			} else {
				rt.comm.Send(m.to, tag, m.spars, m.bytes)
				m.spars = nil
			}
			mv.Rows += m.rows
			mv.Bytes += int64(m.bytes)
			bytesSent += int64(m.bytes)
		}
		if rt.cfg.Replicate && a.dense != nil {
			rep := rt.replicas[name]
			for _, tr := range sched {
				if !deadSet[tr.From] || holder[tr.From] != me || tr.To == me {
					continue
				}
				plo, phi := intersect(tr.Lo, tr.Hi, rep)
				rows := phi - plo
				slab := getDenseSlab(rows, a.dense.RowLen)
				if rows > 0 {
					off := (plo - rep.lo) * a.dense.RowLen
					copy(slab.data, rep.data[off:off+rows*a.dense.RowLen])
					for g := plo; g < phi; g++ {
						rt.node.ChargeTouch(a.dense.RowBytes())
					}
				}
				bytes := 16 + rows*int(a.dense.RowBytes())
				rt.comm.Send(tr.To, tag, replicaSlab{lo: plo, hi: phi, data: slab}, bytes)
				mv.Rows += rows
				mv.Bytes += int64(bytes)
				bytesSent += int64(bytes)
			}
		}
		if rt.sink != nil && (mv.Rows > 0 || mv.Bytes > 0) {
			moves = append(moves, mv)
		}

		// Phase 4: receive, distinguishing live sources (normal slabs) from
		// dead ones (replica service or declared loss).
		for _, tr := range sched {
			if tr.To != me {
				continue
			}
			if deadSet[tr.From] {
				rt.recoverTransfer(a, tag, tr, holder, deadSet, &bytesRecv)
				continue
			}
			payload, st, err := rt.comm.RecvErr(tr.From, tag)
			if err != nil {
				rt.absorbDead(rt.deadOf(err))
				rt.loseRows(a, tr.Lo, tr.Hi)
				continue
			}
			bytesRecv += int64(st.Bytes)
			if a.dense != nil {
				slab, ok := payload.(*denseSlab)
				if !ok || slab.rows != tr.Hi-tr.Lo {
					panic(fmt.Sprintf("core: bad dense recovery payload for %q", name))
				}
				a.dense.PutRows(tr.Lo, slab.data)
				putDenseSlab(slab)
			} else {
				slab, ok := payload.(*sparseSlab)
				if !ok || slab.p.Rows() != tr.Hi-tr.Lo {
					panic(fmt.Sprintf("core: bad sparse recovery payload for %q", name))
				}
				a.sparse.UnpackRows(tr.Lo, &slab.p)
				putSparseSlab(slab)
			}
		}
	}

	rt.dist = newDist
	if err := rt.comm.BarrierErr(rt.group); err != nil {
		rt.absorbDead(rt.deadOf(err))
	}
	rt.events = append(rt.events, Event{
		Kind: EvRedistEnd, Cycle: rt.cycle, Time: rt.node.Now(),
		Bytes: bytesSent + bytesRecv, BytesSent: bytesSent, BytesRecv: bytesRecv,
		Counts: newDist.Counts(), Info: "failure",
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
	rt.refreshReplicasNow()
}

// recoverTransfer satisfies one transfer whose source is dead: from this
// rank's own replica, from the buddy's replica over the wire, or — when no
// live replica exists (replication off, sparse array, buddy also dead) — by
// declaring the rows lost. The holder sends exactly when the receiver
// expects a message, both sides deciding from the same holder map.
func (rt *Runtime) recoverTransfer(a *regArray, tag int, tr drsd.Transfer, holder map[int]int, deadSet map[int]bool, bytesRecv *int64) {
	h, ok := holder[tr.From]
	if !rt.cfg.Replicate || a.dense == nil || !ok || deadSet[h] {
		rt.loseRows(a, tr.Lo, tr.Hi)
		return
	}
	if h == rt.comm.Rank() {
		rt.restoreLocal(a, tr.Lo, tr.Hi)
		return
	}
	payload, st, err := rt.comm.RecvErr(h, tag)
	if err != nil {
		rt.absorbDead(rt.deadOf(err))
		rt.loseRows(a, tr.Lo, tr.Hi)
		return
	}
	*bytesRecv += int64(st.Bytes)
	rs, ok := payload.(replicaSlab)
	if !ok {
		panic(fmt.Sprintf("core: bad replica recovery payload for %q", a.name))
	}
	if rs.hi > rs.lo {
		a.dense.PutRows(rs.lo, rs.data.data)
		rt.recoveredRows += rs.hi - rs.lo
	}
	putDenseSlab(rs.data)
	rt.loseRows(a, tr.Lo, minI(rs.lo, tr.Hi))
	rt.loseRows(a, maxI(rs.hi, tr.Lo), tr.Hi)
}

// restoreLocal reconstructs rows [lo,hi) of a dense array from this rank's
// own replica (the dead rank was this rank's ring predecessor).
func (rt *Runtime) restoreLocal(a *regArray, lo, hi int) {
	rep := rt.replicas[a.name]
	plo, phi := intersect(lo, hi, rep)
	if phi > plo {
		off := (plo - rep.lo) * a.dense.RowLen
		a.dense.PutRows(plo, rep.data[off:off+(phi-plo)*a.dense.RowLen])
		for g := plo; g < phi; g++ {
			rt.node.ChargeTouch(a.dense.RowBytes())
		}
		rt.recoveredRows += phi - plo
	}
	rt.loseRows(a, lo, plo)
	rt.loseRows(a, phi, hi)
}

// loseRows declares global rows [lo,hi) of array a unrecoverable: dense
// rows are zero-filled, sparse rows cleared, and the range recorded so the
// application can see exactly what was lost.
func (rt *Runtime) loseRows(a *regArray, lo, hi int) {
	if hi <= lo {
		return
	}
	for g := lo; g < hi; g++ {
		if a.dense != nil {
			row := a.dense.Row(g)
			for j := range row {
				row[j] = 0
			}
			rt.node.ChargeTouch(a.dense.RowBytes())
		} else {
			a.sparse.ClearRow(g)
			rt.node.ChargeTouch(8)
		}
	}
	rt.lost = append(rt.lost, LostRange{Array: a.name, Lo: lo, Hi: hi})
	rt.lostRows += hi - lo
}

// refreshReplicas re-captures dense-array buddy replicas: each rank ships a
// copy of its owned rows to its ring successor in the current distribution
// and stores the copy its predecessor ships in return. Runs at every
// (re)distribution point and, when ReplicaEvery is set, every N cycles from
// EndCycle. Eager sends precede the receives, so the ring cannot deadlock.
func (rt *Runtime) refreshReplicas() {
	if !rt.cfg.Replicate || rt.isOut {
		return
	}
	ranks := rt.dist.Ranks()
	if len(ranks) < 2 {
		rt.replicas = nil
		return
	}
	me := rt.comm.Rank()
	self := -1
	for i, r := range ranks {
		if r == me {
			self = i
		}
	}
	if self < 0 {
		return
	}
	next := ranks[(self+1)%len(ranks)]
	prev := ranks[(self-1+len(ranks))%len(ranks)]
	lo, hi := rt.dist.RangeOf(me)
	for _, name := range rt.order {
		a := rt.arrays[name]
		if a.dense == nil {
			continue
		}
		if !rt.comm.World().Alive(next) {
			// The buddy died mid-cycle: its mailbox will never be drained, so
			// shipping the refresh would only waste injection time. The death
			// is recovered at the next cycle boundary; skipping here keeps the
			// send side consistent with the receive side's error handling.
			continue
		}
		rows := hi - lo
		slab := getDenseSlab(rows, a.dense.RowLen)
		a.dense.CopyRowsTo(slab.data, lo, hi)
		for g := lo; g < hi; g++ {
			rt.node.ChargeTouch(a.dense.RowBytes())
		}
		rt.comm.Send(next, tagReplica+a.index, replicaSlab{lo: lo, hi: hi, data: slab},
			16+rows*int(a.dense.RowBytes()))
	}
	if rt.replicas == nil {
		rt.replicas = make(map[string]*replica)
	}
	for _, name := range rt.order {
		a := rt.arrays[name]
		if a.dense == nil {
			continue
		}
		p, _, err := rt.comm.RecvErr(prev, tagReplica+a.index)
		if err != nil {
			// The predecessor died before shipping its refresh; keep the
			// stale replica and let the next cycle boundary run recovery.
			rt.absorbDead(rt.deadOf(err))
			continue
		}
		rs, ok := p.(replicaSlab)
		if !ok {
			panic(fmt.Sprintf("core: bad replica refresh payload for %q", name))
		}
		rep := rt.replicas[name]
		if rep == nil {
			rep = &replica{}
			rt.replicas[name] = rep
		}
		n := (rs.hi - rs.lo) * a.dense.RowLen
		if cap(rep.data) < n {
			rep.data = make([]float64, n)
		} else {
			rep.data = rep.data[:n]
		}
		copy(rep.data, rs.data.data[:n])
		rep.lo, rep.hi = rs.lo, rs.hi
		for g := rs.lo; g < rs.hi; g++ {
			rt.node.ChargeTouch(a.dense.RowBytes())
		}
		putDenseSlab(rs.data)
	}
}

// intersect clips [lo,hi) to the replica's covered range; a nil replica
// yields the empty range [lo,lo).
func intersect(lo, hi int, rep *replica) (int, int) {
	if rep == nil {
		return lo, lo
	}
	plo, phi := maxI(lo, rep.lo), minI(hi, rep.hi)
	if phi < plo {
		return lo, lo
	}
	return plo, phi
}

// anyActive reports whether any of ranks is an active member.
func (rt *Runtime) anyActive(ranks []int) bool {
	for _, r := range ranks {
		if containsInt(rt.active, r) {
			return true
		}
	}
	return false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// withoutInts returns s with every member of drop removed (fresh slice).
func withoutInts(s, drop []int) []int {
	out := make([]int, 0, len(s))
	for _, x := range s {
		if !containsInt(drop, x) {
			out = append(out, x)
		}
	}
	return out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
