package core

import (
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// One-sided consumers of the mpi window layer. Every epoch here is a
// pairwise PSCW epoch (post/start/complete/wait): only the ranks that
// actually exchange data synchronise, never the whole group.
//
// Replica refresh (Config.ReplicaRMA): the paired-send/recv refresh makes
// every holder stall in a blocking receive for its predecessor's slab. The
// one-sided refresh defers that settlement a full cycle: at each refresh
// point a rank first *closes* the epoch opened at the previous refresh —
// by then an entire cycle of computation has hidden the wire, so the wait
// settles with (near) zero stall — and then opens the next epoch by
// exposing a staging buffer to its ring predecessor and Putting its own
// rows into its successor's window. The committed replica (replica.data)
// is only overwritten when an epoch settles, so a predecessor that dies
// mid-cycle without depositing leaves the previous committed state
// intact, exactly like the paired path's keep-the-stale-replica
// behaviour. Each (holder, buddy) pair settles with two 8-byte control
// messages. Ordering rules the pairwise protocol needs:
//
//   - open posts every array's window before starting any: a rank whose
//     start fails (dead successor) abandons the open, and had it not
//     already posted, its live predecessor would hang in a start. The post
//     is also the epoch's write barrier: the predecessor cannot Put until
//     its start consumes the post, which follows this rank's close-time
//     promotion of the previous stage in program order.
//   - close completes every array before waiting on any: completion
//     notifications must all be out before this rank can abandon in a
//     failed wait, or a live successor would hang in its wait. Promotion
//     of the settled stage to the committed replica is host-only
//     bookkeeping: the modelled deposit already landed by one-sided DMA, so
//     no virtual charge is made (the paired path's receive CPU and commit
//     touches are precisely the cost this mode saves).
//   - failure observation is pairwise-local (only the dead rank's ring
//     neighbours see an error mid-refresh), which is exactly the runtime's
//     asymmetric-detection contract: the next cycle boundary's collective
//     fails for everyone and recovery converges there (failure.go). A
//     failed wait settles nothing; only a *dead* predecessor's deposit may
//     be adopted (its goroutine is gone, so the stage cannot be
//     concurrently written), and PendingPSCW answers deterministically
//     whether its Put landed in full — a crash fires at operation entry,
//     so a Put either ran to completion or never started. A live
//     predecessor's deposit is abandoned (the replica keeps its previous
//     commit), and the windows are discarded and rebuilt on the
//     post-recovery group.
//
// Redistribution (Config.RedistMode == RedistRMA): see rmaRedistArray. A
// grow or rejoin redistribution additionally routes transfers bound for
// resized-in ranks through Get — the joiner pulls its slabs from the
// owners instead of the owners pushing them — see rmaFetchArray.

// repRange is the row range an open replica epoch will commit.
type repRange struct {
	lo, hi int
}

// ReplicaStall reports the cumulative receive-side stall this rank's
// replica refreshes have cost it (paired receives, or epoch settlements
// under ReplicaRMA). The RMA-vs-p2p study and the refresh benchmarks
// compare it across modes.
func (rt *Runtime) ReplicaStall() vclock.Duration { return rt.replicaStall }

// Finish settles any still-open replica epoch. Applications (and the apps
// harness) call it once per rank after the last cycle; without it the
// final epoch's deposits would be left pending on world teardown. Safe to
// call multiple times and when replication or RMA mode is off.
func (rt *Runtime) Finish() {
	if rt.cfg.ReplicaRMA {
		rt.closeReplicaEpoch()
	}
}

// refreshReplicasNow runs one replica refresh in the configured mode,
// accounting the receive-side stall it cost.
func (rt *Runtime) refreshReplicasNow() {
	if rt.cfg.ReplicaRMA {
		rt.closeReplicaEpoch()
		rt.openReplicaEpoch()
		return
	}
	stall0 := rt.comm.RecvStall
	rt.refreshReplicas()
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// openReplicaEpoch exposes this rank's staging buffers to its ring
// predecessor and Puts its owned rows into its ring successor's windows,
// leaving the epoch open for the next refresh point to close. Every rank
// of the current distribution calls it collectively.
func (rt *Runtime) openReplicaEpoch() {
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
	stall0 := rt.comm.RecvStall
	defer func() { rt.replicaStall += rt.comm.RecvStall - stall0 }()
	if !equalInts(rt.repRanks, ranks) {
		// Membership changed (or first open): discard whatever is pending
		// on the abandoned windows, then register fresh ones on the new
		// group. Registration order is rt.order on every member, so the
		// k-th WinCreate of each member meets on the same window.
		rt.discardReplicaWindows()
		g := rt.comm.World().NewGroup(ranks)
		rt.repWins = make(map[string]*mpi.Win, len(rt.order))
		for _, name := range rt.order {
			if rt.arrays[name].dense == nil {
				continue
			}
			rt.repWins[name] = rt.comm.WinCreate(g, nil)
		}
		rt.repRanks = append(rt.repRanks[:0], ranks...)
	}
	rt.repPrev = ranks[(self-1+len(ranks))%len(ranks)]
	rt.repNext = ranks[(self+1)%len(ranks)]
	if rt.replicas == nil {
		rt.replicas = make(map[string]*replica)
	}
	if rt.repPend == nil {
		rt.repPend = make(map[string]repRange)
	}
	plo, phi := rt.dist.RangeOf(rt.repPrev)
	lo, hi := rt.dist.RangeOf(me)

	// Loop 1: attach and post every array's window toward the predecessor
	// before starting any (see the file comment).
	for _, name := range rt.order {
		a := rt.arrays[name]
		if a.dense == nil {
			continue
		}
		win := rt.repWins[name]
		rt.stageReplica(a, phi-plo)
		rt.comm.WinAttach(win, mpi.FlatMem(rt.replicas[name].stage))
		rt.comm.WinPost(win, []int{rt.repPrev})
	}

	// Loop 2: start toward the successor and Put this rank's slab.
	for _, name := range rt.order {
		a := rt.arrays[name]
		if a.dense == nil {
			continue
		}
		win := rt.repWins[name]
		if err := rt.comm.WinStartErr(win, []int{rt.repNext}); err != nil {
			// The successor died before posting. Abandon the open — the
			// epoch never opens (repOpen stays false), and the exposures
			// already posted settle nothing: the next open observes the
			// membership change, discards any deposit a live predecessor
			// lands meanwhile, and rebuilds the windows. Waiting on the
			// predecessor here instead would deadlock: its completion only
			// arrives at its next refresh point, beyond the failed
			// collective this rank must still reach.
			rt.absorbDead(rt.deadOf(err))
			rt.repRanks = rt.repRanks[:0]
			return
		}
		rt.repPend[name] = repRange{lo: plo, hi: phi}
		if hi > lo {
			// Origin-side injection: the same packing touches and Put CPU a
			// paired sender pays — the saving is entirely holder-side.
			slab := getDenseSlab(hi-lo, a.dense.RowLen)
			a.dense.CopyRowsTo(slab.data, lo, hi)
			for g := lo; g < hi; g++ {
				rt.node.ChargeTouch(a.dense.RowBytes())
			}
			rt.comm.Put(win, rt.repNext, 0, slab.data)
			putDenseSlab(slab)
		}
	}
	rt.repOpen = true
}

// stageReplica (re)sizes array a's staging buffer for an incoming deposit
// of `rows` rows, creating the replica record on first use.
func (rt *Runtime) stageReplica(a *regArray, rows int) {
	rep := rt.replicas[a.name]
	if rep == nil {
		rep = &replica{}
		rt.replicas[a.name] = rep
	}
	n := rows * a.dense.RowLen
	if cap(rep.stage) < n {
		rep.stage = make([]float64, n)
	} else {
		rep.stage = rep.stage[:n]
	}
}

// closeReplicaEpoch settles the replica epoch left open by the last
// refresh point, promoting each staged deposit to the committed replica.
// No-op when no epoch is open. On a failed wait it runs the adoption
// protocol documented at the top of the file.
func (rt *Runtime) closeReplicaEpoch() {
	if !rt.repOpen {
		return
	}
	rt.repOpen = false
	stall0 := rt.comm.RecvStall
	failed := false
	// Loop 1: complete toward the successor for every array before waiting
	// on any (see the file comment).
	for _, name := range rt.order {
		a := rt.arrays[name]
		if a.dense == nil {
			continue
		}
		if err := rt.comm.WinCompleteErr(rt.repWins[name]); err != nil {
			// The successor died: this rank's deposits are gone with it.
			// Nothing to settle on this side; the wait loop still runs.
			failed = true
			rt.absorbDead(rt.deadOf(err))
		}
	}
	// Loop 2: wait on the predecessor's completion, settling the pair's
	// epoch, and promote the staged deposit.
	for _, name := range rt.order {
		a := rt.arrays[name]
		if a.dense == nil {
			continue
		}
		win := rt.repWins[name]
		rep := rt.replicas[name]
		pend := rt.repPend[name]
		if err := rt.comm.WinWaitErr(win); err != nil {
			failed = true
			rt.absorbDead(rt.deadOf(err))
			adopt := false
			if !rt.comm.World().Alive(rt.repPrev) {
				want := (pend.hi - pend.lo) * a.dense.RowLen
				elems, ok := rt.comm.PendingPSCW(win, rt.repPrev)
				adopt = want == 0 || (ok && elems == want)
			}
			rt.comm.DiscardPending(win)
			if adopt {
				rt.promoteReplica(a, rep, pend)
			}
			continue
		}
		rt.promoteReplica(a, rep, pend)
	}
	if failed {
		// Abandon the windows: the group lost a member, so no further epoch
		// can settle on them. The next open discards any deposit a slow
		// survivor lands in the meantime and rebuilds on the new group.
		rt.repRanks = rt.repRanks[:0]
	}
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// promoteReplica commits one settled stage as the array's replica.
// Host-only bookkeeping: the modelled transfer already landed one-sided,
// so no virtual cost is charged (see the file comment).
func (rt *Runtime) promoteReplica(a *regArray, rep *replica, pend repRange) {
	n := (pend.hi - pend.lo) * a.dense.RowLen
	if cap(rep.data) < n {
		rep.data = make([]float64, n)
	} else {
		rep.data = rep.data[:n]
	}
	copy(rep.data, rep.stage[:n])
	rep.lo, rep.hi = pend.lo, pend.hi
}

// discardReplicaWindows drops every deposit still pending against this
// rank's slots of the current replica windows, releasing them before the
// windows are abandoned for a new group.
func (rt *Runtime) discardReplicaWindows() {
	for _, win := range rt.repWins {
		rt.comm.DiscardPending(win)
	}
}

// --- RedistRMA ------------------------------------------------------------

// denseWinMem exposes a dense array's resident window [wlo,whi) as window
// memory: element offset 0 is row wlo. Rows may be non-contiguous
// (Projection scheme), which is why the window layer takes an interface
// rather than a flat slice. Access is raw — no virtual touches — because
// deposits model one-sided DMA into the exposed rows.
type denseWinMem struct {
	d   *matrix.Dense
	wlo int
}

func (m denseWinMem) WriteAt(off int, src []float64) {
	rl := m.d.RowLen
	g := m.wlo + off/rl
	for len(src) > 0 {
		copy(m.d.Row(g), src[:rl])
		src = src[rl:]
		g++
	}
}

func (m denseWinMem) ReadAt(off int, dst []float64) {
	rl := m.d.RowLen
	g := m.wlo + off/rl
	for len(dst) > 0 {
		copy(dst[:rl], m.d.Row(g))
		dst = dst[rl:]
		g++
	}
}

func (m denseWinMem) Len() int { return (m.d.Hi() - m.d.Lo()) * m.d.RowLen }

// redistWinFor returns the one-sided window redistribution uses for array
// a, creating the per-array windows the first time the active group needs
// them. All active ranks call applyDistribution collectively, so creation
// order (rt.order) is identical on every member.
func (rt *Runtime) redistWinFor(a *regArray) *mpi.Win {
	if rt.redistGroup != rt.group {
		rt.redistGroup = rt.group
		rt.redistWins = make(map[string]*mpi.Win, len(rt.order))
		for _, name := range rt.order {
			if rt.arrays[name].dense == nil {
				continue
			}
			rt.redistWins[name] = rt.comm.WinCreate(rt.group, nil)
		}
	}
	return rt.redistWins[a.name]
}

// rmaRedistArray runs Phase 3 of one dense array's redistribution through
// a one-sided window and reports the rows and bytes it shipped and the
// bytes it committed. Only the schedule's real (sender, receiver) pairs
// synchronise: the receiver exposes its freshly resized resident window
// (Phase 2 has run) with one post to all its senders and one wait; each
// sender runs one start/Put/complete epoch per receiver, in schedule
// order, Putting its packed slabs directly at destination offsets both
// sides compute from the schedule. There is no harvest loop and no commit
// loop, and the receiver pays neither per-message CPU nor commit touches.
//
// One epoch per receiver, not one combined epoch: a multi-target start
// fails as a whole, so a combined epoch toward a dead receiver would never
// complete toward the live ones, leaving them hanging in their waits. A
// dead receiver's rows die with it. On a failed wait every live sender's
// completion has still arrived, so its Puts have landed and are kept; a
// dead sender's rows are kept only when PendingPSCW proves its Puts landed
// in full (a crash fires at operation entry, so presence is
// deterministic), and are lost otherwise — conservatively, every transfer
// from that sender. The schedule never pairs a rank with itself.
func (rt *Runtime) rmaRedistArray(a *regArray, sched []drsd.Transfer, newDist *drsd.Block, outs []redistOut) (rows int, sent, recv int64) {
	me := rt.comm.Rank()
	win := rt.redistWinFor(a)
	rl := a.dense.RowLen
	nlo, nhi := newDist.RangeOf(me)
	wlo, _ := drsd.Window(a.accesses, nlo, nhi, rt.n)
	rt.comm.WinAttach(win, denseWinMem{d: a.dense, wlo: wlo})
	senders := rt.peerBuf[:0]
	for _, tr := range sched {
		if tr.To == me && !containsInt(senders, tr.From) {
			senders = append(senders, tr.From)
		}
	}
	rt.peerBuf = senders
	if len(senders) > 0 {
		rt.comm.WinPost(win, senders)
	}

	for i := range outs {
		to := outs[i].to
		if outs[i].dense == nil {
			continue // shipped with an earlier transfer's epoch toward to
		}
		err := rt.comm.WinStartErr(win, []int{to})
		if err != nil {
			rt.absorbDead(rt.deadOf(err))
		}
		tlo, thi := newDist.RangeOf(to)
		twlo, _ := drsd.Window(a.accesses, tlo, thi, rt.n)
		for j := i; j < len(outs); j++ {
			m := &outs[j]
			if m.to != to {
				continue
			}
			if err == nil {
				rt.comm.Put(win, to, (m.lo-twlo)*rl, m.dense.data)
				rows += m.rows
				sent += int64(m.bytes)
			}
			putDenseSlab(m.dense)
			m.dense = nil
		}
		if err != nil {
			continue
		}
		if err := rt.comm.WinCompleteErr(win); err != nil {
			rt.absorbDead(rt.deadOf(err))
		}
	}
	if len(senders) == 0 {
		return rows, sent, recv
	}

	var dead []int
	if err := rt.comm.WinWaitErr(win); err != nil {
		dead = rt.deadOf(err)
		rt.absorbDead(dead)
	}
	for _, tr := range sched {
		if tr.To != me {
			continue
		}
		if containsInt(dead, tr.From) && !rt.landedInFull(win, a, sched, tr.From) {
			rt.loseRows(a, tr.Lo, tr.Hi)
			continue
		}
		recv += int64(tr.Hi-tr.Lo) * a.dense.RowBytes()
	}
	if dead != nil {
		rt.comm.DiscardPending(win)
	}
	return rows, sent, recv
}

// landedInFull reports whether every row the schedule routes from origin
// to this rank is pending in win — the adoption test for a sender that
// died mid-commit.
func (rt *Runtime) landedInFull(win *mpi.Win, a *regArray, sched []drsd.Transfer, origin int) bool {
	me := rt.comm.Rank()
	want := 0
	for _, tr := range sched {
		if tr.To == me && tr.From == origin {
			want += (tr.Hi - tr.Lo) * a.dense.RowLen
		}
	}
	elems, ok := rt.comm.PendingPSCW(win, origin)
	return ok && elems == want
}

// fetchWinFor returns the one-sided window joiner fetch uses for array a,
// distinct from the redistribution windows because the two expose
// different memories: the redistribution window exposes a receiver's
// resident rows for Puts, the fetch window exposes a source's packed
// outgoing slabs for Gets. Creation mirrors redistWinFor — every group
// member registers the per-array windows in rt.order the first time the
// group needs them, so the k-th WinCreate of each member meets on the
// same window.
func (rt *Runtime) fetchWinFor(a *regArray) *mpi.Win {
	if rt.fetchGroup != rt.group {
		rt.fetchGroup = rt.group
		rt.fetchWins = make(map[string]*mpi.Win, len(rt.order))
		for _, name := range rt.order {
			if rt.arrays[name].dense == nil {
				continue
			}
			rt.fetchWins[name] = rt.comm.WinCreate(rt.group, nil)
		}
	}
	return rt.fetchWins[a.name]
}

// rmaFetchArray moves one dense array's joiner-bound transfers with Get
// under PSCW: each source exposes its packed outgoing slabs (fbuf, laid
// out in schedule order) and posts to the joiners pulling from it; each
// joiner runs one pairwise epoch per source — start, Get each of its rows
// at offsets both sides derive from the same schedule, complete — and the
// source's wait then settles the handshake. Established owners never
// stall in a per-joiner serve loop (the joiner pays the Get landing at
// its completion), and failure isolation is pairwise: a joiner that finds
// a source dead loses exactly that source's rows and keeps pulling from
// the rest. Every group member calls this when the schedule routes any
// transfer to a resized-in rank — the window registration must meet
// collectively — and non-participants return after registering.
func (rt *Runtime) rmaFetchArray(a *regArray, sched []drsd.Transfer, newDist *drsd.Block, newcomer map[int]bool, fetchOuts []redistOut, fbuf []float64, mv *telemetry.ArrayMove, sent, recv *int64) {
	me := rt.comm.Rank()
	fwin := rt.fetchWinFor(a)
	rl := a.dense.RowLen

	if len(fetchOuts) > 0 {
		// Source: expose the packed slabs, post to the pulling joiners, and
		// wait out their completions. The joiners' Gets read the exposed
		// buffer while this rank sits in the wait, so fbuf must not be
		// touched until the wait returns (the next array's packing reuses
		// it — strictly after this).
		rt.comm.WinAttach(fwin, mpi.FlatMem(fbuf))
		var fetchers []int
		for i := range fetchOuts {
			m := &fetchOuts[i]
			seen := false
			for _, f := range fetchers {
				if f == m.to {
					seen = true
					break
				}
			}
			if !seen {
				fetchers = append(fetchers, m.to)
			}
			mv.Rows += m.rows
			mv.Bytes += int64(m.bytes)
			*sent += int64(m.bytes)
		}
		rt.comm.WinPost(fwin, fetchers)
		if err := rt.comm.WinWaitErr(fwin); err != nil {
			// A joiner died mid-pull; its pairwise epoch can never settle.
			// Its rows die with it either way — drop the handshake state.
			rt.absorbDead(rt.deadOf(err))
			rt.comm.DiscardPending(fwin)
		}
		return
	}

	if !newcomer[me] {
		return
	}
	// Joiner: pull from each source in one pairwise epoch per source, in
	// schedule order (the same order every rank derives).
	nlo, nhi := newDist.RangeOf(me)
	wlo, _ := drsd.Window(a.accesses, nlo, nhi, rt.n)
	type pull struct {
		lo, hi int
		slab   *denseSlab
	}
	var pulls []pull
	started := map[int]bool{}
	for _, tr := range sched {
		if tr.To != me || started[tr.From] {
			continue
		}
		s := tr.From
		started[s] = true
		if err := rt.comm.WinStartErr(fwin, []int{s}); err != nil {
			// The source died before posting: its rows cannot be pulled.
			// Pairwise isolation — only this source's transfers are lost.
			rt.absorbDead(rt.deadOf(err))
			for _, t2 := range sched {
				if t2.To == me && t2.From == s {
					rt.loseRows(a, t2.Lo, t2.Hi)
				}
			}
			continue
		}
		pulls = pulls[:0]
		off := 0
		for _, t2 := range sched {
			if t2.From != s || !newcomer[t2.To] {
				continue
			}
			rows := t2.Hi - t2.Lo
			if t2.To == me {
				slab := getDenseSlab(rows, rl)
				rt.comm.Get(fwin, s, off, slab.data)
				pulls = append(pulls, pull{lo: t2.Lo, hi: t2.Hi, slab: slab})
			}
			off += rows * rl
		}
		if err := rt.comm.WinCompleteErr(fwin); err != nil {
			// The source died after posting. The Gets captured their payload
			// at call time, so the rows are good: absorb the death, drop the
			// handshake state the completion could not settle, commit anyway.
			rt.absorbDead(rt.deadOf(err))
			rt.comm.DiscardPending(fwin)
		}
		for _, p := range pulls {
			// Raw landing into the resident window — one-sided DMA, priced
			// by the Get settlement at completion, exactly like a pushed
			// Put's landing (no per-row commit touches).
			denseWinMem{d: a.dense, wlo: wlo}.WriteAt((p.lo-wlo)*rl, p.slab.data)
			*recv += int64(p.hi-p.lo) * a.dense.RowBytes()
			putDenseSlab(p.slab)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
