package core

import "repro/internal/drsd"

// drainBlocking is the serial reference Phase-3 drain: every outgoing slab
// is Sent in schedule order, then one blocking RecvErr per incoming
// transfer, committed in schedule order. It is the simplest correct
// drain, and the pipelined engine must reproduce its virtual timeline
// byte for byte; the equivalence suites select it with
// withReferenceDrain.
func (rt *Runtime) drainBlocking(a *regArray, rest []drsd.Transfer, outs []redistOut) (rows int, sent, recv int64) {
	me := rt.comm.Rank()
	tag := tagRedist + a.index
	for i := range outs {
		m := &outs[i]
		if m.dense != nil {
			rt.comm.Send(m.to, tag, m.dense, m.bytes)
			m.dense = nil
		} else {
			rt.comm.Send(m.to, tag, m.spars, m.bytes)
			m.spars = nil
		}
		rows += m.rows
		sent += int64(m.bytes)
	}
	for _, tr := range rest {
		if tr.To != me {
			continue
		}
		payload, st, err := rt.comm.RecvErr(tr.From, tag)
		if err != nil {
			// The sender died before shipping these rows. Record the death
			// and declare the rows lost; the recovery pass at the next cycle
			// boundary may still restore them from a replica.
			rt.absorbDead(rt.deadOf(err))
			rt.loseRows(a, tr.Lo, tr.Hi)
			continue
		}
		recv += int64(st.Bytes)
		rt.commitSlab(a, tr.Lo, tr.Hi, payload)
	}
	return rows, sent, recv
}

// withReferenceDrain runs fn with every message-passing Phase 3 routed
// through drainBlocking.
func withReferenceDrain(fn func()) {
	redistDrain = (*Runtime).drainBlocking
	defer func() { redistDrain = (*Runtime).drainNonblocking }()
	fn()
}
