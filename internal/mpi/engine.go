package mpi

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// This file is the sharded collective engine. The former implementation
// funnelled every collective through one Group mutex: deposits serialised on
// it, completion was announced with cond.Broadcast wakeups that made every
// member re-acquire the lock to poll a map, and the last arriver performed
// the whole O(n·len) element-wise reduction while all other ranks blocked.
//
// The engine replaces that with a ring of per-op rendezvous slots:
//
//   - Deposits are lock-free. Each member writes its own contribution slot
//     and publishes it with one atomic (the arrival counter, or a combiner
//     tree counter), so concurrent deposits never contend on a mutex.
//     Vector contributions travel through a typed [][]float64 array, so the
//     hot reductions never box a slice through an interface.
//   - Completion is published by flipping one atomic flag. Members waiting
//     for it spin briefly (yielding the processor), which resolves almost
//     every rendezvous without a single scheduler park; a member that
//     exhausts its spin budget parks on its own capacity-1 wake channel,
//     and the publisher broadcasts tokens only when someone actually
//     parked. No mutex is ever taken on the success path.
//   - The element-wise allreduce runs through a combiner tree for large
//     groups and non-trivial vectors: the second arriver at each internal
//     node combines its two children, so the O(n·len) reduction is spread
//     across the arriving goroutines in O(log n) combining depth instead of
//     being executed serially by the last arriver. The tree is a fixed
//     binary tree over group slots, so the floating-point association — and
//     therefore every result bit — is independent of physical arrival
//     order.
//
// Liveness checks stay O(1) on the hot path: waiters consult the world's
// dead counter (one atomic load) and only scan the membership for dead
// non-depositors when a death has actually been published.

// opRing is the number of in-flight rendezvous slots per group. A member
// depositing into op seq proves op seq-2 has fully drained (it consumed
// seq-1, so every member deposited seq-1, so every member had consumed
// seq-2), hence a ring of 4 leaves a whole spare generation; the ready
// generation gate below turns the residual scheduling race (a resetter
// descheduled between the final consumption and the reset) into a bounded
// spin instead of a correctness hazard.
const opRing = 4

const opRingMask = opRing - 1

// treeMinRanks and treeMinElems gate the combiner tree: the element-wise
// allreduce switches from the last-arriver serial fold to the tree only for
// groups of at least treeMinRanks members reducing vectors of at least
// treeMinElems elements. Below either bound the serial fold is faster (the
// tree's per-node arbitration outweighs the spread-out work) and — for
// small groups — preserves the historical left-to-right reduction order
// bit-for-bit, which the golden traces of the existing small-world
// experiments pin. Both bounds depend only on (group size, vector length),
// so the association is deterministic for a given workload.
const (
	treeMinRanks = 16
	treeMinElems = 16
)

// waitSpinRounds bounds the yield-and-recheck spins a member performs
// waiting for publication before it parks on its wake channel. Collectives
// between compute phases publish within a round or two of yields, so the
// common case never touches the scheduler's park/unpark machinery.
const waitSpinRounds = 8

type opKind uint8

// rop identifies well-known reduction operators so the combine loops can
// run direct arithmetic instead of calling through a function pointer —
// on the element-wise hot path the indirect call is the dominant cost.
const (
	ropCustom uint8 = iota
	ropSum
	ropMax
)

// combine writes the element-wise reduction of a and b into dst (len(dst)
// elements; a and b must be at least as long).
func combine(dst, a, b []float64, rop uint8, rfn func(x, y float64) float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	switch rop {
	case ropSum:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case ropMax:
		for i := range dst {
			if a[i] > b[i] {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
	default:
		for i := range dst {
			dst[i] = rfn(a[i], b[i])
		}
	}
}

// foldInto reduces v into out element-wise, in place.
func foldInto(out, v []float64, rop uint8, rfn func(x, y float64) float64) {
	v = v[:len(out)]
	switch rop {
	case ropSum:
		for i := range out {
			out[i] += v[i]
		}
	case ropMax:
		for i := range out {
			if v[i] > out[i] {
				out[i] = v[i]
			}
		}
	default:
		for i := range out {
			out[i] = rfn(out[i], v[i])
		}
	}
}

const (
	opBarrier opKind = iota
	opBcast
	opAllreduce
	opAllgather
	opAllgatherF64
	opGather
	opKinds // count sentinel
)

// kindNames and kindAlgorithms label the collective shapes for telemetry
// and stats (the algorithm is the cost-model tree, see cost.go).
var kindNames = [opKinds]string{
	"barrier", "bcast", "allreduce", "allgather", "allgather-f64", "gather",
}

var kindAlgorithms = [opKinds]string{
	"dissemination", "binomial-tree", "recursive-doubling",
	"recursive-doubling", "recursive-doubling", "binomial-gather",
}

// collDesc describes one collective invocation. Every member passes an
// identical descriptor (the SPMD contract), so whichever member publishes
// the result can price and build it.
type collDesc struct {
	kind     opKind
	bytes    int // per-member payload wire size
	rootSlot int // bcast/gather root, as a group slot
	rfn      func(a, b float64) float64
	rop      uint8 // well-known operator fast path (ropSum/ropMax)
	pooled   bool  // deliver via a pooled vector (copy-out-before-release)
}

// opState is one collective rendezvous slot. The success path is lock-free:
// members deposit with writes to their own slot entries published by one
// atomic, the publisher (last arriver, or the combiner-tree root completer)
// writes the result fields and flips pub, and every consumer releases the
// slot with one atomic decrement. op.mu guards only the rare failure path
// (dead-member error publication, orphan adoption, leak accounting).
type opState struct {
	// ready names the op sequence number this slot currently serves.
	// Deposits for seq spin until ready == seq; the spin is almost never
	// taken, because the slot was necessarily drained two ops ago.
	ready atomic.Int64

	times       []vclock.Time // per-slot deposit time (owner-written)
	bytes       []int         // per-slot offered payload bytes (owner-written)
	contribs    []any         // per-slot boxed contribution (owner-written)
	contribsF64 [][]float64   // per-slot vector contribution (owner-written)

	// depSeq[s] records the op generation member s last deposited into, as
	// seq+1 (so the zero value means "never"). "Deposited this op" is
	// depSeq[s] == ready+1, which makes the deposit marker self-resetting:
	// recycling the slot never has to clear n per-slot flags.
	depSeq  []atomic.Int64
	arrived atomic.Int32 // deposit count (serial-path publication)

	// Combiner tree (element-wise allreduce, gated by treeMinRanks and
	// treeMinElems), indexed by flat (level, node) position: treeCnt
	// arbitrates which arriver combines an internal node, treeVal holds
	// each position's (sub)result, treeBuf retains the internal nodes'
	// scratch vectors across ops. treeCnt arbitrates by parity — each
	// two-child node receives exactly two increments per op, so the first
	// arriver always observes an odd count — and therefore never needs
	// resetting either (wraparound preserves parity).
	treeCnt []atomic.Int32
	treeVal [][]float64
	treeBuf [][]float64

	// Result fields, valid once pub is true (pub is flipped with release
	// semantics after they are written).
	pub     atomic.Bool
	value   any
	finish  vclock.Time
	cpuEach vclock.Duration
	cErr    error // dead-member failure; nil on success

	// valueF64 is the typed result of the pooled (*Into) collectives; every
	// consumer copies it into its dst before releasing the op, so nothing
	// ever boxes it through the value interface. valPtr is the pool box to
	// hand back on reset (nil when valueF64 aliases op-owned tree scratch).
	valueF64 []float64
	valPtr   *[]float64

	left atomic.Int32 // successful-op consumptions outstanding

	// parked counts members blocked on their wake channels. The publisher
	// broadcasts wake tokens only when it is non-zero, so spin-resolved
	// rendezvous (the common case) perform no channel operations at all.
	parked atomic.Int32

	// wake[s] is member s's parking spot: a capacity-1 channel used as a
	// binary semaphore. A blocked member receives from its own channel;
	// signallers send non-blocking (a full channel means a token is already
	// pending, which is just as good). Tokens carry no op identity — a
	// receiver always rechecks pub — so a stale token from a previous
	// generation costs one spurious recheck and can never cause a missed
	// wakeup: after any post-publication send attempt the channel is
	// non-empty, so a parked receiver is guaranteed to wake and observe pub.
	wake []chan struct{}

	mu       sync.Mutex
	consumed []bool // error-path consumption accounting (under mu)
	errLeft  int    // live members yet to consume the error (under mu)
}

// signalSlot hands member i a wakeup token, without blocking.
func signalSlot(op *opState, i int) {
	select {
	case op.wake[i] <- struct{}{}:
	default:
	}
}

// signalAll hands every member a wakeup token.
func signalAll(op *opState) {
	for i := range op.wake {
		signalSlot(op, i)
	}
}

// Group is a subset of world ranks that participates in collectives
// together. All members must call each collective in the same order.
type Group struct {
	w       *World
	members []int       // world ranks
	slot    map[int]int // world rank -> index in members

	seq  []int64 // per-slot local op counter (written only by the owner)
	ring [opRing]*opState

	// Combiner-tree geometry, shared by the ring slots: lvlWidth[l] nodes
	// at level l (level 0 = the leaves/slots), lvlOff[l] the flat offset.
	// Empty below treeMinRanks.
	lvlWidth []int
	lvlOff   []int

	// f64Pool recycles the result vectors of the pooled (*Into) collectives,
	// whose callers copy the result out before releasing the op and never
	// retain the shared slice.
	f64Pool sync.Pool

	// One-sided windows registered on this group (see window.go). winSeq[s]
	// counts member s's WinCreate calls and is written only by that member's
	// goroutine; the k-th call of every member resolves to wins[k], which is
	// what lets SPMD ranks meet on the same window without naming it.
	winMu  sync.Mutex
	wins   []*Win
	winSeq []int64

	stats collStats
}

// collStats counts completed collectives per shape. bytes accumulates the
// payload offered across all members (bytes-per-member × ranks × ops).
type collStats struct {
	count [opKinds]atomic.Int64
	bytes [opKinds]atomic.Int64
}

// CollectiveShape summarises the completed collectives of one kind on a
// group, in cost-model terms.
type CollectiveShape struct {
	Op        string // "barrier", "bcast", "allreduce", ...
	Algorithm string // modelled tree: "binomial-tree", "recursive-doubling", ...
	Ranks     int    // group size
	Steps     int    // modelled tree depth ceil(log2 ranks)
	Count     int64  // completed operations
	Bytes     int64  // payload bytes offered across members and ops
}

// CollectiveStats returns per-shape counters of the collectives completed
// on this group so far, ordered by kind. Failed (dead-member) collectives
// never completed and are not counted.
func (g *Group) CollectiveStats() []CollectiveShape {
	out := make([]CollectiveShape, 0, int(opKinds))
	for k := opKind(0); k < opKinds; k++ {
		out = append(out, CollectiveShape{
			Op:        kindNames[k],
			Algorithm: kindAlgorithms[k],
			Ranks:     len(g.members),
			Steps:     treeSteps(len(g.members)),
			Count:     g.stats.count[k].Load(),
			Bytes:     g.stats.bytes[k].Load(),
		})
	}
	return out
}

func (g *Group) noteOp(kind opKind, bytes int) {
	g.stats.count[kind].Add(1)
	g.stats.bytes[kind].Add(int64(bytes) * int64(len(g.members)))
}

// NewGroup returns the collective group over the given world ranks. Groups
// are canonical: every rank asking for the same member list receives the
// *same* Group object, which is what lets SPMD ranks rebuild a group after
// a membership change and still meet in its collectives.
func (w *World) NewGroup(members []int) *Group {
	if len(members) == 0 {
		panic("mpi: empty group")
	}
	// The dedup key spells the members out, space-separated.
	kb := make([]byte, 0, 8*len(members))
	for i, m := range members {
		if i > 0 {
			kb = append(kb, ' ')
		}
		kb = strconv.AppendInt(kb, int64(m), 10)
	}
	key := string(kb)
	w.groups.Lock()
	if w.groups.byKey == nil {
		w.groups.byKey = make(map[string]*Group)
	}
	if g, ok := w.groups.byKey[key]; ok {
		w.groups.Unlock()
		return g
	}
	w.groups.Unlock()
	g := &Group{
		w:       w,
		members: append([]int(nil), members...),
		slot:    make(map[int]int, len(members)),
		seq:     make([]int64, len(members)),
		winSeq:  make([]int64, len(members)),
	}
	for i, m := range members {
		if _, dup := g.slot[m]; dup {
			panic(fmt.Sprintf("mpi: duplicate rank %d in group", m))
		}
		g.slot[m] = i
	}
	n := len(members)
	flat := 0
	if n >= treeMinRanks {
		for width := n; ; width = (width + 1) / 2 {
			g.lvlOff = append(g.lvlOff, flat)
			g.lvlWidth = append(g.lvlWidth, width)
			flat += width
			if width == 1 {
				break
			}
		}
	}
	for i := range g.ring {
		op := &opState{
			times:       make([]vclock.Time, n),
			bytes:       make([]int, n),
			contribs:    make([]any, n),
			contribsF64: make([][]float64, n),
			depSeq:      make([]atomic.Int64, n),
			consumed:    make([]bool, n),
		}
		if flat > 0 {
			op.treeCnt = make([]atomic.Int32, flat)
			op.treeVal = make([][]float64, flat)
			op.treeBuf = make([][]float64, flat)
		}
		op.wake = make([]chan struct{}, n)
		for s := range op.wake {
			op.wake[s] = make(chan struct{}, 1)
		}
		op.left.Store(int32(n))
		op.ready.Store(int64(i))
		g.ring[i] = op
	}
	w.groups.Lock()
	if prior, ok := w.groups.byKey[key]; ok {
		// Another rank registered the same group concurrently; use theirs.
		w.groups.Unlock()
		return prior
	}
	w.groups.byKey[key] = g
	w.groups.list = append(w.groups.list, g)
	w.groups.Unlock()
	return g
}

// AllGroup returns the group containing every world rank.
func (w *World) AllGroup() *Group { return w.all }

// Members returns the group's world ranks (callers must not mutate).
func (g *Group) Members() []int { return g.members }

// Size reports the number of group members.
func (g *Group) Size() int { return len(g.members) }

// Slot reports rank's index within the group and whether it is a member.
func (g *Group) Slot(rank int) (int, bool) {
	s, ok := g.slot[rank]
	return s, ok
}

// getF64 returns a pool box holding a []float64 of length n. The box (a
// *[]float64) travels back into the pool on reset, so steady-state pooled
// collectives allocate nothing: boxing a bare slice header into the pool's
// interface would cost one heap allocation per Put.
func (g *Group) getF64(n int) *[]float64 {
	if v, ok := g.f64Pool.Get().(*[]float64); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := make([]float64, n)
	return &s
}

// maxTime returns the latest of ts.
func maxTime(ts []vclock.Time) vclock.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// opBytes returns the payload size the op is priced at: the largest
// contribution any member deposited. Collectives with asymmetric
// per-member payloads (an allgather of uneven chunks after a skewed
// redistribution) would otherwise be priced by whichever member happened
// to publish — the last *physical* arriver — making virtual time depend on
// goroutine scheduling. Every member has deposited by publication time
// (serial publish requires all arrivals; the combiner tree's root completes
// only after every leaf), so the maximum is well-defined and deterministic.
// For the symmetric collectives it equals every member's own desc.bytes.
func opBytes(op *opState) int {
	m := op.bytes[0]
	for _, b := range op.bytes[1:] {
		if b > m {
			m = b
		}
	}
	return m
}

// groupSlot resolves this rank's slot in g, caching the last group so the
// steady state (one group used every cycle) skips the map lookup.
func (c *Comm) groupSlot(g *Group) int {
	if g == c.lastGroup {
		return c.lastSlot
	}
	slot, ok := g.slot[c.rank]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d not in group", c.rank))
	}
	c.lastGroup, c.lastSlot = g, slot
	return slot
}

// rendezvousErr is the failure-aware collective core. Every member deposits
// a contribution (vec for the typed float64 collectives, contrib for boxed
// payloads); one member (the last arriver, or the combiner-tree root
// completer) publishes the result; everyone leaves with the result, its
// clock advanced to the completion time plus the per-member CPU charge.
//
// When dst is non-nil the []float64 result is copied into dst *before the
// op is released*, so pooled result vectors are recycled the moment the
// last member leaves without racing a slow reader.
//
// When a group member is dead and has not deposited, every surviving member
// leaves with a *RankFailedError naming the dead rank(s), at its own
// deposit time and with no clock advance — the collective never completed,
// so it charges nothing. A member cannot die *inside* an op: injected
// crashes fire at operation entry, before the deposit, which is the
// invariant that lets successful ops drain without any reclamation logic.
func (c *Comm) rendezvousErr(g *Group, contrib any, vec []float64, desc *collDesc, dst []float64) (any, error) {
	c.checkFailed()
	if c.flt != nil {
		c.pollFaults()
	}
	slot := c.groupSlot(g)
	seq := g.seq[slot]
	g.seq[slot]++

	op := g.ring[seq&opRingMask]
	// Generation gate: wait until the slot's previous tenant has drained.
	// Steady state never spins (the previous op drained two generations
	// ago); the loop exists for the rare descheduled-resetter window and
	// for error-path drains that complete out of band.
	for op.ready.Load() != seq {
		if c.w.failed.Load() {
			panic(errFailed)
		}
		runtime.Gosched()
	}

	op.times[slot] = c.node.Now()
	op.bytes[slot] = desc.bytes
	if vec != nil {
		op.contribsF64[slot] = vec
	} else if contrib != nil {
		op.contribs[slot] = contrib
	}
	op.depSeq[slot].Store(seq + 1)

	n := len(g.members)
	if desc.kind == opAllreduce && n >= treeMinRanks && desc.bytes >= 8*treeMinElems {
		c.combineUp(g, op, slot, vec, desc)
	} else if int(op.arrived.Add(1)) == n {
		c.publishSerial(g, op, desc)
	}

	if !op.pub.Load() {
		c.waitOp(g, op, slot)
	}

	if err := op.cErr; err != nil {
		op.mu.Lock()
		if !op.consumed[slot] {
			op.consumed[slot] = true
			op.errLeft--
			if op.errLeft == 0 {
				g.resetOp(op)
			}
		}
		op.mu.Unlock()
		return nil, err
	}

	value := op.value
	finish, cpuEach := op.finish, op.cpuEach
	if dst != nil {
		// Copy-out before release: after the final decrement the vector may
		// be recycled, so no reference escapes past this point. Pooled
		// results travel through the typed valueF64 field — boxing a slice
		// into the value interface would allocate on every op.
		copy(dst, op.valueF64)
	}
	if desc.kind == opGather && slot != desc.rootSlot {
		value = nil // non-root members receive nothing from a gather
	}
	if op.left.Add(-1) == 0 {
		op.mu.Lock()
		g.resetOp(op)
		op.mu.Unlock()
	}

	c.node.WaitUntil(finish)
	if cpuEach > 0 {
		c.node.Compute(cpuEach)
	}
	return value, nil
}

// waitOp blocks this member until the op publishes (success or error). It
// first spins with scheduler yields — collectives between compute phases
// publish within a round or two, so the common case costs no park/unpark —
// and only then parks on its own wake channel, announcing itself through
// op.parked so the publisher knows to broadcast tokens. Waiters are also
// woken by a world failure or a death; on death the first waiter to observe
// a dead non-depositor publishes the error itself. Spurious tokens (from a
// previous generation of this ring slot) just re-run the checks.
func (c *Comm) waitOp(g *Group, op *opState, slot int) {
	w := c.w
	for i := 0; i < waitSpinRounds; i++ {
		if w.failed.Load() {
			panic(errFailed)
		}
		if w.deadCount.Load() > 0 && g.tryFailOp(op) {
			return
		}
		runtime.Gosched()
		if op.pub.Load() {
			return
		}
	}
	op.parked.Add(1)
	defer op.parked.Add(-1)
	// Announce-then-recheck pairs with the publisher's publish-then-check:
	// either the publisher sees parked > 0 and broadcasts, or this load
	// sees pub — a parked member can never miss the publication.
	for !op.pub.Load() {
		if w.failed.Load() {
			panic(errFailed)
		}
		if w.deadCount.Load() > 0 && g.tryFailOp(op) {
			return
		}
		<-op.wake[slot]
	}
}

// tryFailOp runs the dead-member check under the op lock; see
// tryFailOpLocked.
func (g *Group) tryFailOp(op *opState) bool {
	op.mu.Lock()
	failed := g.tryFailOpLocked(op)
	op.mu.Unlock()
	return failed
}

// tryFailOpLocked publishes a RankFailedError when some dead group member
// never deposited into op. A dead member can never deposit later (crashes
// fire at operation entry), so the error is final, and — by the same
// invariant — a dead member can never have deposited into a still-pending
// op, so the dead are exactly the members that will never consume: they are
// pre-marked consumed here, and members that die *after* this accounting
// are adopted by World.Kill's orphan walk. That combination is what
// guarantees the slot always drains; the former implementation leaked one
// opResult for every member that died after the live count was snapshotted.
// Callers hold op.mu. Reports whether the op is now error-published.
func (g *Group) tryFailOpLocked(op *opState) bool {
	if op.pub.Load() {
		return true
	}
	gen := op.ready.Load() + 1 // deposit marker for the active generation
	var missing []int
	for i, m := range g.members {
		if op.depSeq[i].Load() != gen && g.w.dead[m].Load() {
			missing = append(missing, m)
		}
	}
	if len(missing) == 0 {
		return false
	}
	op.cErr = &RankFailedError{Op: "collective", Ranks: missing}
	live := 0
	for i, m := range g.members {
		if g.w.dead[m].Load() {
			op.consumed[i] = true
		} else {
			live++
		}
	}
	op.errLeft = live
	op.pub.Store(true)
	signalAll(op)
	return true
}

// publishSerial prices and publishes a collective whose result the last
// arriver assembles serially (every kind except the tree-combined
// allreduce). The assembly runs outside any lock — all contributions are in
// and immutable — and a panicking assembly (bad payload shapes) fails the
// world rather than deadlocking it.
func (c *Comm) publishSerial(g *Group, op *opState, desc *collDesc) {
	cost, err := buildResult(g, op, desc)
	if err != nil {
		c.w.fail(fmt.Errorf("rank %d: collective reduction: %w", c.rank, err))
		panic(errFailed)
	}
	g.publishResult(op, desc, cost)
}

// publishResult installs the result fields, flips pub, and wakes any member
// that parked. Spin-waiting members observe pub directly, so when no one
// parked (the common case) publication costs one atomic store.
func (g *Group) publishResult(op *opState, desc *collDesc, cost collCost) {
	op.finish = maxTime(op.times).Add(cost.wire)
	op.cpuEach = cost.cpuEach
	g.noteOp(desc.kind, opBytes(op))
	op.pub.Store(true)
	if op.parked.Load() > 0 {
		signalAll(op)
	}
}

// buildResult assembles the published value for the serial collectives
// directly into op's result fields (only the publisher touches them before
// pub flips), converting panics (type or length mismatches) into errors.
func buildResult(g *Group, op *opState, desc *collDesc) (cost collCost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	n := len(g.members)
	net := g.w.cl.Net()
	bytes := opBytes(op) // deterministic pricing: see opBytes
	switch desc.kind {
	case opBarrier:
		cost = barrierCost(net, n)
	case opBcast:
		cost = bcastCost(net, n, bytes)
		if desc.pooled {
			// Copy into a pooled vector: the root's own buffer is only
			// stable until the root leaves the collective, but members may
			// copy out later.
			src := op.contribsF64[desc.rootSlot]
			vp := g.getF64(len(src))
			copy(*vp, src)
			op.valPtr, op.valueF64 = vp, *vp
		} else {
			op.value = op.contribs[desc.rootSlot]
		}
	case opAllreduce:
		// Small-shape serial fold, in slot order (bit-identical to the
		// pre-sharding engine; large shapes take the combiner tree).
		first := op.contribsF64[0]
		var out []float64
		if desc.pooled {
			vp := g.getF64(len(first))
			op.valPtr = vp
			out = *vp
			copy(out, first)
		} else {
			out = append([]float64(nil), first...)
		}
		for _, v := range op.contribsF64[1:] {
			if len(v) != len(out) {
				panic("mpi: allreduce length mismatch")
			}
			foldInto(out, v, desc.rop, desc.rfn)
		}
		if desc.pooled {
			op.valueF64 = out
		} else {
			op.value = out
		}
		cost = allreduceCost(net, n, bytes)
	case opAllgather:
		op.value = append([]any(nil), op.contribs...)
		cost = allgatherCost(net, n, bytes)
	case opAllgatherF64:
		vp := g.getF64(n)
		out := *vp
		for i := range out {
			out[i] = op.contribsF64[i][0]
		}
		op.valPtr, op.valueF64 = vp, out
		cost = allgatherCost(net, n, bytes)
	case opGather:
		op.value = append([]any(nil), op.contribs...)
		cost = gatherCost(net, n, bytes)
	}
	return cost, nil
}

// combineUp runs this member's share of the combiner-tree allreduce and, if
// this member completed the root, publishes the result.
func (c *Comm) combineUp(g *Group, op *opState, slot int, vec []float64, desc *collDesc) {
	root, err := g.safeTreeWalk(op, slot, vec, desc.rop, desc.rfn)
	if err != nil {
		c.w.fail(fmt.Errorf("rank %d: collective reduction: %w", c.rank, err))
		panic(errFailed)
	}
	if root == nil {
		return // another member carries this subtree upward
	}
	if desc.pooled {
		// The root scratch vector survives until the op is reset, and every
		// pooled consumer copies out before releasing — so it is delivered
		// directly, without marking it pool-owned (valPtr stays nil).
		op.valueF64 = root
	} else {
		op.value = append([]float64(nil), root...)
	}
	g.publishResult(op, desc, allreduceCost(c.w.cl.Net(), len(g.members), opBytes(op)))
}

// safeTreeWalk is treeWalk with panics (ragged vectors) turned into errors.
func (g *Group) safeTreeWalk(op *opState, slot int, v []float64, rop uint8, rfn func(a, b float64) float64) (root []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return g.treeWalk(op, slot, v, rop, rfn), nil
}

// treeWalk deposits v at slot's leaf and combines upward through the fixed
// binary tree over group slots. The second arriver at each internal node
// combines its two children element-wise — left child first, so the
// association is fixed by slot order and the result is deterministic
// regardless of physical arrival order — and carries the result up. A node
// whose right child does not exist (non-power-of-two groups) forwards its
// lone child's value without arbitration. Returns the root vector when this
// goroutine completed the root, nil otherwise.
func (g *Group) treeWalk(op *opState, slot int, v []float64, rop uint8, rfn func(a, b float64) float64) []float64 {
	op.treeVal[slot] = v
	idx, cur := slot, v
	for lvl := 0; lvl+1 < len(g.lvlWidth); lvl++ {
		parent := idx >> 1
		pFlat := g.lvlOff[lvl+1] + parent
		if idx^1 >= g.lvlWidth[lvl] {
			// Lone child: carry the value up unchanged.
			op.treeVal[pFlat] = cur
			idx = parent
			continue
		}
		if op.treeCnt[pFlat].Add(1)&1 == 1 {
			// First arriver (odd count: exactly two increments land on each
			// two-child node per op, so parity arbitrates across generations
			// without any reset): the sibling's walker completes this node.
			// Our treeVal write is ordered before the counter add, so the
			// sibling (whose add returns even) observes it.
			return nil
		}
		base := g.lvlOff[lvl] + (parent << 1)
		left, right := op.treeVal[base], op.treeVal[base+1]
		if len(left) != len(right) {
			panic("mpi: allreduce length mismatch")
		}
		buf := op.treeBuf[pFlat]
		if cap(buf) < len(left) {
			buf = make([]float64, len(left))
			op.treeBuf[pFlat] = buf
		}
		buf = buf[:len(left)]
		combine(buf, left, right, rop, rfn)
		op.treeVal[pFlat] = buf
		idx, cur = parent, buf
	}
	return cur
}

// resetOp recycles the slot for its next op generation. Callers hold op.mu
// (the success path's final consumer takes it uncontended; the error drain
// and the orphan walk already hold it). Combiner-tree value slots are NOT
// cleared: every position is written before it is read within each op, so
// stale pointers are harmless and the clear would cost O(n) on the hot
// path. The ready bump is the release store that lets the next generation's
// depositors through the gate.
func (g *Group) resetOp(op *opState) {
	if op.valPtr != nil {
		g.f64Pool.Put(op.valPtr)
		op.valPtr = nil
	}
	if op.cErr != nil {
		op.cErr = nil
		clear(op.consumed) // only the error path marks consumption
		op.errLeft = 0
	}
	op.value = nil
	op.valueF64 = nil
	op.finish = 0
	op.cpuEach = 0
	clear(op.contribs) // release payload references for the GC
	clear(op.contribsF64)
	// depSeq and treeCnt deliberately stay: the deposit markers are
	// generation-stamped and the tree counters arbitrate by parity, so
	// recycling costs O(1) atomics instead of O(n) clears.
	op.arrived.Store(0)
	op.left.Store(int32(len(g.members)))
	op.pub.Store(false)
	op.ready.Store(op.ready.Load() + opRing)
}

// wakeAll wakes every waiter blocked on the group's rendezvous slots so
// liveness checks re-run (world failure, rank death).
func (g *Group) wakeAll() {
	for _, op := range g.ring {
		signalAll(op)
	}
}

// adoptOrphans credits the dead rank's unconsumed error results across the
// group's ring, reclaiming ops that would otherwise leak: a member that
// dies after an error was published (and was therefore counted as a live
// consumer) can no longer consume its share. Called by World.Kill.
func (g *Group) adoptOrphans(slot int) {
	for _, op := range g.ring {
		op.mu.Lock()
		if op.pub.Load() && op.cErr != nil && !op.consumed[slot] {
			op.consumed[slot] = true
			op.errLeft--
			if op.errLeft == 0 {
				g.resetOp(op)
			}
		}
		op.mu.Unlock()
	}
}

// leakedOps counts ring slots still holding an undrained op: a deposit or
// published result some member never released.
func (g *Group) leakedOps() int {
	n := 0
	for _, op := range g.ring {
		op.mu.Lock()
		dirty := op.pub.Load()
		if !dirty {
			gen := op.ready.Load() + 1
			for i := range op.depSeq {
				if op.depSeq[i].Load() == gen {
					dirty = true
					break
				}
			}
		}
		op.mu.Unlock()
		if dirty {
			n++
		}
	}
	return n
}

// LeakedOps reports the number of collective rendezvous slots left
// undrained across all groups, plus the number of nonblocking receive
// requests still posted in a mailbox, plus the number of one-sided
// deposits never settled by an epoch (see window.go). After a Run that
// completes without failing the world this is zero — even when ranks
// crashed mid-collective or mid-Wait — which the failure tests assert; a
// non-zero count means some op's bookkeeping was orphaned (the bug class
// the adoption walk and the Kill posted-list reclaim eliminate).
func (w *World) LeakedOps() int {
	total := 0
	w.groups.Lock()
	for _, g := range w.groups.list {
		total += g.leakedOps()
		total += g.pendingDeposits()
	}
	w.groups.Unlock()
	for _, b := range w.boxes {
		b.mu.Lock()
		total += len(b.posted)
		b.mu.Unlock()
	}
	return total
}
