package cluster

import (
	"fmt"
	"testing"

	"repro/internal/vclock"
)

// refCompute is Node.Compute without its shortcuts: the float division and
// the slice loop for every cost. It is the reference the fast paths must
// match bit for bit.
func refCompute(n *Node, cost vclock.Duration) vclock.Duration {
	if cost < 0 {
		panic("cluster: negative compute cost")
	}
	start := n.clock.Now()
	need := vclock.Duration(float64(cost) / n.power)
	q := n.cl.quantum
	for need > 0 {
		if n.debt > 0 {
			d := n.debt
			n.debt = 0
			n.advanceLoaded(d)
		}
		if n.curSlice == 0 {
			n.curSlice = n.nextSliceLen()
		}
		run := n.curSlice - n.sliceUsed
		if need < run {
			run = need
		}
		n.clock.Advance(run)
		n.cpuUsed += run
		n.sliceUsed += run
		need -= run
		if n.sliceUsed >= n.curSlice {
			n.sliceUsed = 0
			n.curSlice = 0
			if k := n.cpAt(n.clock.Now()); k > 0 {
				n.debt += vclock.Duration(k) * q
			}
		}
	}
	return n.clock.Now().Sub(start)
}

// refChargeTouch is Node.ChargeTouch without its memo, charging through
// refCompute.
func refChargeTouch(n *Node, bytes int64) {
	if bytes <= 0 {
		return
	}
	net := n.cl.spec.Net
	cost := vclock.FromSeconds(float64(bytes) / net.MemBandwidth)
	if n.mem > 0 && n.resident > n.mem {
		over := float64(n.resident-n.mem) / float64(n.resident)
		cost += vclock.FromSeconds(over * float64(bytes) / net.DiskBandwidth)
	}
	refCompute(n, vclock.Duration(float64(cost)*n.power))
}

// equivSpec builds a one-node scenario whose competing processes come and
// go either at drawn virtual times or at drawn phase cycles. The two
// triggers are not mixed on one node: a cycle event lands at the node's
// clock, which must not precede an already installed timed segment.
func equivSpec(power float64, mem int64, q vclock.Duration, timed bool, seed uint64) Spec {
	spec := Uniform(1)
	spec.Nodes[0] = NodeSpec{Power: power, MemBytes: mem}
	spec.Quantum = q
	spec.Seed = seed
	rng := vclock.NewPRNG(seed).Fork(99)
	for i := 0; i < 6; i++ {
		if timed {
			at := vclock.Time(rng.Float64() * float64(300*q))
			end := at.Add(vclock.Duration(rng.Float64() * float64(100*q)))
			spec = spec.With(TimeEvent(0, at, +1), TimeEvent(0, end, -1))
		} else {
			at := rng.Intn(60)
			spec = spec.With(CycleEvent(0, at, +1), CycleEvent(0, at+1+rng.Intn(20), -1))
		}
	}
	return spec
}

// TestNodeFastPathsMatchReference drives a node through seeded random
// sequences of Compute, ChargeTouch, AdjustResident, WaitUntil and OnCycle,
// and a twin node through the same sequence with the reference
// Compute/ChargeTouch. Clocks, CPU times and Compute's return values must
// agree after every call: across powers 1, 0.7 and 1.3, unlimited and
// paging memory, time- and cycle-triggered competitors, and costs at and
// above 2^53, where power 1's exact shortcut stops applying.
func TestNodeFastPathsMatchReference(t *testing.T) {
	const steps = 1500
	for _, power := range []float64{1, 0.7, 1.3} {
		for _, mem := range []int64{0, 4096} {
			// A huge quantum keeps the slice loop short for 2^53-ns costs.
			for _, q := range []vclock.Duration{10 * vclock.Millisecond, 1 << 40} {
				for _, timed := range []bool{true, false} {
					for seed := uint64(1); seed <= 2; seed++ {
						name := fmt.Sprintf("p%v/mem%d/q%d/timed=%v/seed%d", power, mem, q, timed, seed)
						t.Run(name, func(t *testing.T) {
							spec := equivSpec(power, mem, q, timed, seed)
							fast, ref := New(spec).Node(0), New(spec).Node(0)
							rng := vclock.NewPRNG(seed).Fork(7)
							cycle := 0
							for i := 0; i < steps; i++ {
								var op string
								switch r := rng.Float64(); {
								case r < 0.35:
									var cost vclock.Duration
									switch c := rng.Intn(11); {
									case c == 0:
										cost = 0
									case c < 6:
										cost = vclock.Duration(rng.Intn(50_000))
									case c < 9:
										cost = vclock.Duration(rng.Float64() * float64(3*q))
									case c == 9:
										// Exactly the rest of the current slice:
										// the boundary the shortcut must leave
										// to the loop.
										cost = vclock.Duration(float64(ref.curSlice-ref.sliceUsed) * power)
									case q > 1<<30:
										cost = 1<<53 + vclock.Duration(rng.Intn(3))
									default:
										cost = vclock.Duration(rng.Intn(int(q)))
									}
									op = fmt.Sprintf("Compute(%d)", cost)
									if w, rw := fast.Compute(cost), refCompute(ref, cost); w != rw {
										t.Fatalf("step %d %s returned %v, reference %v", i, op, w, rw)
									}
								case r < 0.6:
									sizes := []int64{12, 12, 48, 8 * 512, 0, -5}
									bytes := sizes[rng.Intn(len(sizes))]
									if rng.Intn(4) == 0 {
										bytes = int64(rng.Intn(1 << 16))
									}
									op = fmt.Sprintf("ChargeTouch(%d)", bytes)
									fast.ChargeTouch(bytes)
									refChargeTouch(ref, bytes)
								case r < 0.75:
									delta := int64(rng.Intn(8192)) - 3000
									op = fmt.Sprintf("AdjustResident(%d)", delta)
									fast.AdjustResident(delta)
									ref.AdjustResident(delta)
								case r < 0.9:
									at := fast.Now().Add(vclock.Duration(rng.Float64()*float64(2*q)) - vclock.Millisecond)
									op = fmt.Sprintf("WaitUntil(%d)", at)
									fast.WaitUntil(at)
									ref.WaitUntil(at)
								default:
									op = fmt.Sprintf("OnCycle(%d)", cycle)
									fast.OnCycle(cycle)
									ref.OnCycle(cycle)
									cycle++
								}
								if fast.Now() != ref.Now() || fast.CPUTime() != ref.CPUTime() {
									t.Fatalf("step %d %s: now %v cpu %v, reference now %v cpu %v",
										i, op, fast.Now(), fast.CPUTime(), ref.Now(), ref.CPUTime())
								}
							}
						})
					}
				}
			}
		}
	}
}
