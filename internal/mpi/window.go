package mpi

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// One-sided RMA layer: windows, Put/Get, and pairwise PSCW epochs.
//
// A Win exposes each group member's slab memory for direct remote access.
// Access is synchronised with general active-target synchronization
// (post/start/complete/wait, PSCW): WinPost declares which origins may
// access this rank's window, WinStartErr blocks the origin until every
// named target has posted, Put and Get then move data one-sided,
// WinCompleteErr closes the origin's access epoch (notifying each target
// and settling the origin's own Get landings), and WinWaitErr blocks the
// target until every posted origin has completed, then settles their
// deposits in a deterministic order. Only the participating pairs
// synchronise — each post and each complete is one small control message
// riding the ordinary mailbox — so an epoch over k pairs prices as k
// round-trips, independent of the group size (see cost.go).
//
// Virtual-time contract (the one-sided analogue of the request layer's):
//
//   - Put charges the origin exactly what Send charges a sender: the CPU
//     injection cost at post time, with the data arriving wireTime later.
//     The target is not disturbed at all — no matching, no receive-side
//     CPU. This is the modelled saving over paired send/recv: the copy
//     lands by (virtual) DMA into the exposed memory.
//   - Get charges the origin a zero-byte injection at post time; the data
//     arrives one latency (the request reaching the target's NIC) plus the
//     payload's wireTime later, and the origin pays the landing CPU cost
//     when its own complete settles the transfer.
//   - Settlement (wait for Puts, complete for Gets): residual wire time not
//     already hidden behind the owner's computation is paid as stall
//     (accumulated into Comm.RecvStall) and the hidden remainder is
//     credited to Comm.HiddenWire — the exact arithmetic of a request
//     Wait, validated against per-message Send/Recv simulation by the
//     crosscheck tests.
//
// Failure contract: a dead target fails the origin's WinStartErr or
// WinCompleteErr, a dead origin fails the target's WinWaitErr, and no call
// can hang (control receives use the bounded-wait failure detection of
// RecvErr; completion notifications go out to every live target before
// WinCompleteErr reports the dead ones, so surviving peers always
// unblock). A failed wait settles nothing; the target may inspect a dead
// origin's deposits with PendingPSCW (a crashed rank's Puts completed
// before its death was published, on its own goroutine, so presence is
// deterministic) and must DiscardPending before abandoning the window. Put
// and Get on a target already marked dead deposit nothing; the death is
// reported by the epoch calls. Each window's control traffic has its own
// tags, so epochs on different windows may overlap freely; on one window a
// rank holds at most one access and one exposure epoch at a time.
//
// Memory visibility: deposits mutate the target's memory at call time,
// under the target slot's mutex. The owner must not access the exposed
// range between its post and the matching wait, and may freely access it
// after the wait (the completion notifications carry the happens-before
// edge from every origin's write to the owner's reads). The post is
// likewise the write barrier for the owner's own accesses and attaches:
// an origin cannot deposit before its start consumes the post.

// WinMem is memory exposed through a window, in float64 elements. The
// indirection (instead of a flat slice) lets owners expose non-contiguous
// storage — a matrix.Dense projection's per-row slices — without copying
// it into a registration buffer.
type WinMem interface {
	// WriteAt copies src into the exposed memory at element offset off.
	WriteAt(off int, src []float64)
	// ReadAt fills dst from the exposed memory at element offset off.
	ReadAt(off int, dst []float64)
	// Len reports the exposed extent in elements.
	Len() int
}

// FlatMem exposes a flat []float64 as window memory.
type FlatMem []float64

// WriteAt implements WinMem.
func (m FlatMem) WriteAt(off int, src []float64) { copy(m[off:off+len(src)], src) }

// ReadAt implements WinMem.
func (m FlatMem) ReadAt(off int, dst []float64) { copy(dst, m[off:off+len(dst)]) }

// Len implements WinMem.
func (m FlatMem) Len() int { return len(m) }

// deposit is one one-sided transfer landed in a window slot, recorded at
// the origin's post time and settled by the owner's wait (a Put) or the
// origin's own complete (a Get landing). Deposits are stored by value in
// the slot's pending list, so the steady-state Put path performs no heap
// allocation once the list's high-water mark is reached.
type deposit struct {
	originSlot int
	off        int
	elems      int
	bytes      int
	get        bool        // origin-side landing of a Get (owner pays the CPU copy)
	post       vclock.Time // origin clock when the transfer was injected
	avail      vclock.Time // when the data has fully arrived
	seq        int64       // per-origin program order, for deterministic ties
	epoch      int64       // a Put's target exposure epoch (winSlot.epoch at deposit)
}

// winSlot is one member's side of a window: its attached memory, the
// deposits pending against it, and the count of exposure epochs it has
// closed — the stamp every Put into the open exposure epoch carries, so a
// wait drains exactly its own epoch's deposits. mu serialises remote
// deposits with each other and with the owner's drain; drain is the
// owner-only settlement scratch (filled under mu, consumed outside it).
type winSlot struct {
	mu    sync.Mutex
	mem   WinMem
	dep   []deposit
	drain []deposit
	epoch int64
}

// Win is a one-sided access window over each group member's memory. All
// members create it collectively (the k-th WinCreate call of every member
// resolves to the same Win) and synchronise access pairwise through PSCW
// epochs.
type Win struct {
	g     *Group
	id    int // index within the group's window registry
	tag   int // post-notification tag; the completion tag is tag+1
	slots []winSlot

	// Per-member epoch state, each entry written only by member s's own
	// goroutine: putSeq[s] is its program-order deposit counter, access[s]
	// the open access epoch's target list and expose[s] the open exposure
	// epoch's origin list.
	putSeq []int64
	access [][]int
	expose [][]int
}

func newWin(g *Group, id int) *Win {
	n := len(g.members)
	return &Win{
		g:      g,
		id:     id,
		tag:    pscwTagBase + 2*int(g.w.winSerial.Add(1)-1),
		slots:  make([]winSlot, n),
		putSeq: make([]int64, n),
		access: make([][]int, n),
		expose: make([][]int, n),
	}
}

// Group returns the group the window spans.
func (win *Win) Group() *Group { return win.g }

// ID reports the window's index within its group's registry (stable across
// members: every member's k-th WinCreate call yields window k).
func (win *Win) ID() int { return win.id }

// WinCreate registers this rank's memory in a window over g. Like groups,
// windows are canonical per creation order: the k-th call on g by every
// member returns the same Win, which is how SPMD ranks meet on a window
// without naming it. mem may be nil for members that expose nothing (pure
// origins). Creation synchronises nothing: an origin may access a target's
// memory once its start has consumed that target's post.
func (c *Comm) WinCreate(g *Group, mem WinMem) *Win {
	c.checkFailed()
	slot := c.groupSlot(g)
	k := g.winSeq[slot]
	g.winSeq[slot]++
	g.winMu.Lock()
	for int64(len(g.wins)) <= k {
		g.wins = append(g.wins, newWin(g, len(g.wins)))
	}
	win := g.wins[k]
	g.winMu.Unlock()
	c.WinAttach(win, mem)
	return win
}

// WinAttach replaces this rank's exposed memory. The caller must not
// attach while an exposure epoch is open; the next post publishes the new
// memory to the origins it names.
func (c *Comm) WinAttach(win *Win, mem WinMem) {
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	ts.mu.Lock()
	ts.mem = mem
	ts.mu.Unlock()
}

// accessSeq returns the caller's slot and advances its program-order
// deposit counter. Put and Get are only legal inside an access epoch
// (between WinStartErr and WinCompleteErr).
func (c *Comm) accessSeq(win *Win, op string) (slot int, seq int64) {
	slot = c.groupSlot(win.g)
	if len(win.access[slot]) == 0 {
		panic(fmt.Sprintf("mpi: rank %d %s on window %d outside an access epoch", c.rank, op, win.id))
	}
	win.putSeq[slot]++
	return slot, win.putSeq[slot]
}

// Put starts a one-sided transfer of src into target's window memory at
// element offset off, inside an access epoch opened by WinStartErr. The
// origin pays the injection CPU now, the target pays nothing per message,
// and the residual wire time is settled by the target's WinWaitErr. src is
// copied at call time, so the caller may reuse it immediately. A Put to a
// target already marked dead deposits nothing.
func (c *Comm) Put(win *Win, target, off int, src []float64) {
	c.checkFailed()
	g := win.g
	tslot, ok := g.slot[target]
	if !ok {
		panic(fmt.Sprintf("mpi: put to rank %d outside window group", target))
	}
	var faultDelay vclock.Duration
	if c.flt != nil {
		c.pollFaults()
		faultDelay = c.messageFault(target)
	}
	net := c.w.cl.Net()
	bytes := F64Bytes(len(src))
	c.node.Compute(cpuCost(net, bytes))
	post := c.node.Now()
	c.SentMsgs++
	c.SentBytes += int64(bytes)
	oslot, seq := c.accessSeq(win, "put")
	ts := &win.slots[tslot]
	ts.mu.Lock()
	if c.w.deadCount.Load() > 0 && c.w.dead[target].Load() {
		// The dead slot's pending list was already reclaimed by Kill and no
		// wait will ever drain it; depositing would leak.
		ts.mu.Unlock()
		return
	}
	if ts.mem == nil {
		ts.mu.Unlock()
		panic(fmt.Sprintf("mpi: put into window %d slot of rank %d with no memory attached", win.id, target))
	}
	if len(src) > 0 {
		ts.mem.WriteAt(off, src)
	}
	ts.dep = append(ts.dep, deposit{
		originSlot: oslot,
		off:        off,
		elems:      len(src),
		bytes:      bytes,
		post:       post,
		avail:      post.Add(wireTime(net, bytes) + faultDelay),
		seq:        seq,
		epoch:      ts.epoch,
	})
	ts.mu.Unlock()
}

// Get starts a one-sided read of target's window memory at element offset
// off into dst, inside an access epoch opened by WinStartErr. The data is
// captured at call time (the epoch discipline guarantees it is stable) and
// becomes usable after the origin's WinCompleteErr, which pays the landing
// CPU cost; the target is not disturbed. The modelled arrival is one
// latency (the zero-byte request reaching the target) plus the payload's
// wire time.
func (c *Comm) Get(win *Win, target, off int, dst []float64) {
	c.checkFailed()
	g := win.g
	tslot, ok := g.slot[target]
	if !ok {
		panic(fmt.Sprintf("mpi: get from rank %d outside window group", target))
	}
	var faultDelay vclock.Duration
	if c.flt != nil {
		c.pollFaults()
		faultDelay = c.messageFault(target)
	}
	net := c.w.cl.Net()
	bytes := F64Bytes(len(dst))
	c.node.Compute(cpuCost(net, 0)) // zero-byte request injection
	post := c.node.Now()
	oslot, seq := c.accessSeq(win, "get")
	ts := &win.slots[tslot]
	ts.mu.Lock()
	if c.w.deadCount.Load() > 0 && c.w.dead[target].Load() {
		ts.mu.Unlock()
		return
	}
	if ts.mem == nil {
		ts.mu.Unlock()
		panic(fmt.Sprintf("mpi: get from window %d slot of rank %d with no memory attached", win.id, target))
	}
	if len(dst) > 0 {
		ts.mem.ReadAt(off, dst)
	}
	ts.mu.Unlock()
	// The landing settles at the origin's own complete: a self-deposit.
	os := &win.slots[oslot]
	os.mu.Lock()
	os.dep = append(os.dep, deposit{
		originSlot: oslot,
		off:        off,
		elems:      len(dst),
		bytes:      bytes,
		get:        true,
		post:       post,
		avail:      post.Add(net.Latency + wireTime(net, bytes) + faultDelay),
		seq:        seq,
	})
	os.mu.Unlock()
}

// settleDeposits drains one epoch's worth of deposits on the caller's
// clock: each is stalled to arrival if still in flight (Get landings
// additionally pay the landing CPU), counted into the receive counters, and
// wire time already covered by the caller's computation is credited to
// HiddenWire. The arithmetic is shared verbatim between the target's wait
// (Puts) and the origin's complete (Get landings). The caller must
// sortDeposits first.
func (c *Comm) settleDeposits(drain []deposit) (bytes int64, stall, hidden vclock.Duration) {
	net := c.w.cl.Net()
	for i := range drain {
		d := &drain[i]
		s := d.avail.Sub(c.node.Now())
		if s < 0 {
			s = 0
		}
		c.RecvStall += s
		stall += s
		c.node.WaitUntil(d.avail)
		if d.get {
			c.node.Compute(cpuCost(net, d.bytes))
		}
		c.RecvMsgs++
		c.RecvBytes += int64(d.bytes)
		if inflight := d.avail.Sub(d.post); inflight > 0 {
			if h := inflight - s; h > 0 {
				c.HiddenWire += h
				hidden += h
			}
		}
		bytes += int64(d.bytes)
	}
	return bytes, stall, hidden
}

// sortDeposits orders deposits by (arrival, origin slot, per-origin program
// order) — a total, schedule-independent order. Insertion sort: epochs
// settle a handful of deposits, and the sort must not allocate (settlement
// is on the zero-alloc steady-state path).
func sortDeposits(d []deposit) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && depositLess(&d[j], &d[j-1]); j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

func depositLess(a, b *deposit) bool {
	if a.avail != b.avail {
		return a.avail < b.avail
	}
	if a.originSlot != b.originSlot {
		return a.originSlot < b.originSlot
	}
	return a.seq < b.seq
}

// settle drains the caller's slot of its Get landings (get) or of the
// Puts of its open exposure epoch (!get), settles them in deterministic
// order on the caller's clock, and emits one RMARecord for the epoch when
// any settled. Deposits that do not match stay pending, compacted in
// place; the drained ones move into the slot's reusable drain scratch, so
// steady-state settlement allocates nothing.
func (c *Comm) settle(win *Win, slot int, get bool) {
	ts := &win.slots[slot]
	ts.mu.Lock()
	drain := ts.drain[:0]
	keep := ts.dep[:0]
	for _, d := range ts.dep {
		if d.get == get && (get || d.epoch == ts.epoch) {
			drain = append(drain, d)
		} else {
			keep = append(keep, d)
		}
	}
	// Clear the tail so dropped entries do not linger in the backing array.
	clear(ts.dep[len(keep):])
	ts.dep = keep
	ts.mu.Unlock()
	sortDeposits(drain)
	bytes, stall, hidden := c.settleDeposits(drain)
	ts.drain = drain
	if len(drain) == 0 {
		return
	}
	sink, st := c.node.Telemetry()
	if sink == nil {
		return
	}
	sink.Emit(telemetry.RMARecord{
		Base:     st.Stamp(telemetry.KindRMA, -1, c.node.Now().Seconds()),
		Op:       "pscw",
		Window:   win.id,
		Deposits: len(drain),
		Bytes:    bytes,
		StallS:   stall.Seconds(),
		HiddenS:  hidden.Seconds(),
	})
}

// PSCW control messages ride the ordinary mailbox under reserved tags far
// above the runtime's tag space (internal/core reserves 1<<20 and a few
// KiB above it): the post and complete notifications of the world's k-th
// window use pscwTagBase+2k and pscwTagBase+2k+1. Every window of the
// world — whatever its group — has its own pair, so control traffic never
// cross-matches between windows, not even when a notification of an
// abandoned epoch (a peer died mid-protocol) is left undelivered in a
// mailbox and the survivors rebuild their windows on a new group.
const pscwTagBase = 1 << 26

// pscwCtlBytes is the modelled size of a post or complete notification: one
// int64 word. Control messages are priced exactly as ordinary sends and
// receives of this size — that identity is what makes the PSCW closed form
// in cost.go trivially cross-validate against per-message simulation.
const pscwCtlBytes = 8

func (win *Win) pscwPostTag() int { return win.tag }
func (win *Win) pscwDoneTag() int { return win.tag + 1 }

// WinPost opens an exposure epoch: it declares that exactly origins may
// access this rank's window until the matching WinWaitErr, and sends each
// a post notification. The call does not block: posts to dead origins are
// dropped in delivery and the deaths surface at the wait.
func (c *Comm) WinPost(win *Win, origins []int) {
	c.checkFailed()
	slot := c.groupSlot(win.g)
	if len(win.expose[slot]) != 0 {
		panic(fmt.Sprintf("mpi: rank %d posting window %d with exposure epoch already open", c.rank, win.id))
	}
	for _, o := range origins {
		if _, ok := win.g.slot[o]; !ok {
			panic(fmt.Sprintf("mpi: post to rank %d outside window group", o))
		}
		if o == c.rank {
			panic("mpi: post to self")
		}
		c.Send(o, win.pscwPostTag(), nil, pscwCtlBytes)
	}
	win.expose[slot] = append(win.expose[slot][:0], origins...)
}

// WinStart opens an access epoch, failing the whole world when a target is
// dead (mirroring the blocking collectives).
func (c *Comm) WinStart(win *Win, targets []int) {
	if err := c.WinStartErr(win, targets); err != nil {
		c.w.fail(fmt.Errorf("rank %d: %w", c.rank, err))
		panic(errFailed)
	}
}

// WinStartErr opens an access epoch toward targets: it blocks until every
// named target's post notification arrives, after which Put and Get may
// access those targets. A dead target fails the call with
// *RankFailedError (every remaining target's post is still consumed, so no
// control message is left behind) and the epoch does not open — for every
// target, so an origin that must keep serving live targets when one may be
// dead runs one epoch per target.
func (c *Comm) WinStartErr(win *Win, targets []int) error {
	c.checkFailed()
	slot := c.groupSlot(win.g)
	if len(win.access[slot]) != 0 {
		panic(fmt.Sprintf("mpi: rank %d starting window %d with access epoch already open", c.rank, win.id))
	}
	var dead []int
	for _, t := range targets {
		if _, ok := win.g.slot[t]; !ok {
			panic(fmt.Sprintf("mpi: start toward rank %d outside window group", t))
		}
		if t == c.rank {
			panic("mpi: start toward self")
		}
		if _, _, err := c.RecvErr(t, win.pscwPostTag()); err != nil {
			var rf *RankFailedError
			if errors.As(err, &rf) {
				dead = append(dead, rf.Ranks...)
				continue
			}
			return err
		}
	}
	if dead != nil {
		return &RankFailedError{Op: "win-start", Ranks: dead}
	}
	win.access[slot] = append(win.access[slot][:0], targets...)
	return nil
}

// WinComplete closes the access epoch, failing the whole world when a
// target is dead.
func (c *Comm) WinComplete(win *Win) {
	if err := c.WinCompleteErr(win); err != nil {
		c.w.fail(fmt.Errorf("rank %d: %w", c.rank, err))
		panic(errFailed)
	}
}

// WinCompleteErr closes this rank's open access epoch: it notifies every
// target that the epoch's transfers are in flight (one control message
// each) and settles this rank's own Get landings of the epoch. A dead
// target fails the call with *RankFailedError — after every live target
// has been notified, so surviving peers never hang — without settling; the
// pending Get landings are left for DiscardPending.
func (c *Comm) WinCompleteErr(win *Win) error {
	c.checkFailed()
	slot := c.groupSlot(win.g)
	var dead []int
	for _, t := range win.access[slot] {
		if c.w.deadCount.Load() > 0 && c.w.dead[t].Load() {
			dead = append(dead, t)
			continue
		}
		c.Send(t, win.pscwDoneTag(), nil, pscwCtlBytes)
	}
	win.access[slot] = win.access[slot][:0]
	if dead != nil {
		return &RankFailedError{Op: "win-complete", Ranks: dead}
	}
	c.settle(win, slot, true)
	return nil
}

// WinWait closes the exposure epoch, failing the whole world when an
// origin is dead.
func (c *Comm) WinWait(win *Win) {
	if err := c.WinWaitErr(win); err != nil {
		c.w.fail(fmt.Errorf("rank %d: %w", c.rank, err))
		panic(errFailed)
	}
}

// WinWaitErr closes this rank's open exposure epoch: it blocks until every
// posted origin's completion notification arrives, then drains and settles
// the epoch's deposits in (arrival, origin, program order) order. A dead
// origin fails the call with *RankFailedError without settling anything
// (the remaining live origins' notifications are still consumed, so every
// live origin's Puts have landed when it returns); see PendingPSCW and
// DiscardPending for the recovery protocol. Either way the exposure epoch
// is closed.
func (c *Comm) WinWaitErr(win *Win) error {
	c.checkFailed()
	slot := c.groupSlot(win.g)
	var dead []int
	for _, o := range win.expose[slot] {
		if _, _, err := c.RecvErr(o, win.pscwDoneTag()); err != nil {
			var rf *RankFailedError
			if !errors.As(err, &rf) {
				win.expose[slot] = win.expose[slot][:0]
				return err
			}
			dead = append(dead, rf.Ranks...)
		}
	}
	win.expose[slot] = win.expose[slot][:0]
	if dead == nil {
		c.settle(win, slot, false)
	}
	ts := &win.slots[slot]
	ts.mu.Lock()
	ts.epoch++
	ts.mu.Unlock()
	if dead != nil {
		return &RankFailedError{Op: "win-wait", Ranks: dead}
	}
	return nil
}

// PendingPSCW reports the total elements Put into this rank's window slot
// by origin, any epoch, and whether any such deposit is present. It is
// meaningful after WinWaitErr returned a *RankFailedError naming origin:
// a crashed rank's Puts completed before its death was published (same
// goroutine) — a Put either ran to completion or never started, because
// crashes fire at operation entry — and a failed wait settles nothing, so
// the count answers deterministically whether the dead origin's transfer
// landed in full.
func (c *Comm) PendingPSCW(win *Win, origin int) (elems int, ok bool) {
	oslot, member := win.g.slot[origin]
	if !member {
		return 0, false
	}
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	ts.mu.Lock()
	for i := range ts.dep {
		if d := &ts.dep[i]; d.originSlot == oslot && !d.get {
			elems += d.elems
			ok = true
		}
	}
	ts.mu.Unlock()
	return elems, ok
}

// DiscardPending drops every deposit pending against this rank's window
// slot, releasing it after a failed wait or complete (the epoch can no
// longer settle: a peer died and the window is being abandoned). Without
// the discard the deposits would count as leaked operations.
func (c *Comm) DiscardPending(win *Win) {
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	ts.mu.Lock()
	clear(ts.dep)
	ts.dep = ts.dep[:0]
	ts.mu.Unlock()
}

// dropWindowSlot reclaims the pending deposits of a dead member's window
// slots: only the owner drains a slot, and the owner is gone. Called by
// World.Kill.
func (g *Group) dropWindowSlot(slot int) {
	g.winMu.Lock()
	wins := g.wins
	g.winMu.Unlock()
	for _, win := range wins {
		ts := &win.slots[slot]
		ts.mu.Lock()
		clear(ts.dep)
		ts.dep = ts.dep[:0]
		ts.mu.Unlock()
	}
}

// pendingDeposits counts deposits still pending across the group's
// windows, for leak accounting (see World.LeakedOps). A run that closes
// its epochs (or discards them after a failure) leaves zero.
func (g *Group) pendingDeposits() int {
	g.winMu.Lock()
	wins := g.wins
	g.winMu.Unlock()
	n := 0
	for _, win := range wins {
		for i := range win.slots {
			ts := &win.slots[i]
			ts.mu.Lock()
			n += len(ts.dep)
			ts.mu.Unlock()
		}
	}
	return n
}
