package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

// This file pins the one-sided layer's settlement arithmetic and its
// teardown contract. The per-message Send/Recv mirrors of whole PSCW
// epochs and the pairwise failure suite live in pscw_test.go.

// TestPSCWHiddenWireMatchesClosedForm pins the wait's stall/credit
// arithmetic against the nbRecvStall closed form: with the owner computing
// W after its post, the completion notification reaches it at 2·wire(8)
// (post, then complete, each one 8-byte control message on a CPU-free
// interconnect), so the owner drains the deposit at max(W, 2·wire(8)),
// its residual stall is nbRecvStall(bytes, that clock − the Put's post) and
// the hidden credit is the wire time minus that stall.
func TestPSCWHiddenWireMatchesClosedForm(t *testing.T) {
	net := wireNet() // zero CPU keeps every stamp on the wire-time grid
	const elems = 2048
	bytes := F64Bytes(elems)
	for _, overlapS := range []float64{1e-6, 1.0} { // partial and full hiding
		var stall, hidden vclock.Duration
		spec := cluster.Uniform(2)
		spec.Net = net
		w := NewWorld(cluster.New(spec))
		if err := w.Run(func(c *Comm) error {
			g := c.World().AllGroup()
			win := c.WinCreate(g, make(FlatMem, elems))
			if c.Rank() == 0 {
				c.WinStart(win, []int{1})
				c.Put(win, 1, 0, make([]float64, elems))
				c.WinComplete(win)
				return nil
			}
			c.WinPost(win, []int{0})
			c.Node().Compute(vclock.FromSeconds(overlapS))
			c.WinWait(win)
			stall, hidden = c.RecvStall, c.HiddenWire
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if leaked := w.LeakedOps(); leaked != 0 {
			t.Fatalf("leaked %d ops", leaked)
		}
		ctl := wireTime(net, pscwCtlBytes)
		work := vclock.FromSeconds(overlapS)
		settle, ctlStall := work, vclock.Duration(0)
		if 2*ctl > work {
			settle, ctlStall = 2*ctl, 2*ctl-work
		}
		depStall := nbRecvStall(net, bytes, settle-ctl) // the Put posted at ctl
		if want := ctlStall + depStall; stall != want {
			t.Errorf("overlap %vs: wait stall %v, closed form %v (control %v + deposit %v)",
				overlapS, stall, want, ctlStall, depStall)
		}
		if want := wireTime(net, bytes) - depStall; hidden != want {
			t.Errorf("overlap %vs: hidden credit %v, want %v", overlapS, hidden, want)
		}
	}
}

// TestWindowTeardownNoLeakedDeposits drives several pairwise epochs, a
// reattach, and Gets through two windows on the same group and asserts the
// world tears down with zero pending deposits — the LeakedOps contract for
// windows.
func TestWindowTeardownNoLeakedDeposits(t *testing.T) {
	const n = 4
	spec := cluster.Uniform(n)
	w := NewWorld(cluster.New(spec))
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		a := c.WinCreate(g, make(FlatMem, 32))
		b := c.WinCreate(g, make(FlatMem, 32))
		if a.ID() == b.ID() {
			t.Errorf("rank %d: expected distinct window ids, got %d/%d", c.Rank(), a.ID(), b.ID())
		}
		r := c.Rank()
		prev, next, across := (r-1+n)%n, (r+1)%n, (r+2)%n
		for cycle := 0; cycle < 3; cycle++ {
			c.WinPost(a, []int{prev})
			c.WinPost(b, []int{across})
			c.WinStart(a, []int{next})
			c.Put(a, next, 8*r, []float64{1, 2})
			c.WinComplete(a)
			c.WinStart(b, []int{across})
			c.Get(b, across, 0, make([]float64, 4))
			c.WinComplete(b)
			c.WinWait(a)
			c.WinWait(b)
		}
		c.WinAttach(a, make(FlatMem, 64)) // grow the exposed slab
		c.WinPost(a, []int{prev})
		c.WinStart(a, []int{next})
		c.Put(a, next, 40, []float64{3})
		c.WinComplete(a)
		c.WinWait(a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after multi-window teardown", leaked)
	}
}
