package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// span is one timed interval of a traced run: the workload, a unit, a call
// into a layer's entry point, or the aggregate of a wrapped hook's calls
// (Count calls, DurS seconds inside them in total). Times are seconds since
// the owning process started measuring; the parent rebases child spans.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Count  int64   `json:"count,omitempty"`
	DurS   float64 `json:"dur_s,omitempty"`
}

// tracer times a unit's calls into the program. Untraced, it only records
// each Run call's host time; traced, it also attaches a counting telemetry
// sink to every world and keeps spans.
type tracer struct {
	on      bool
	t0      time.Time
	spans   []span
	runHost []float64
	virt    layerSums // virtual counts from the wrapping sinks
	host    layerSums // host-side quantities measured around the calls
	sinkFP  fingerprint
}

func (tr *tracer) since(t time.Time) float64 { return t.Sub(tr.t0).Seconds() }

// record appends a span under the unit (parent 0) and returns its id.
func (tr *tracer) record(name string, start, end time.Time) int {
	if !tr.on {
		return 0
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Name: name, Start: tr.since(start), End: tr.since(end)})
	return id
}

func (tr *tracer) span(name string, fn func()) {
	start := time.Now()
	fn()
	tr.record(name, start, time.Now())
}

// runApp runs one application world, wrapping c.Telemetry (nil in every
// workload) with a counting sink when tracing.
func (tr *tracer) runApp(label string, c *core.Config, fn func() (apps.Result, error)) (apps.Result, error) {
	var s *countSink
	if tr.on {
		s = newCountSink(c.GracePeriod, c.Telemetry)
		c.Telemetry = s
	}
	start := time.Now()
	r, err := fn()
	end := time.Now()
	tr.runHost = append(tr.runHost, end.Sub(start).Seconds())
	id := tr.record("apps.Run "+label, start, end)
	if s != nil {
		n, d := s.emits.Load(), time.Duration(s.emitNs.Load())
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: id, Name: "telemetry.Emit",
			Start: tr.since(start), End: tr.since(end), Count: n, DurS: d.Seconds()})
		tr.host.add("telemetry.emit_host_s", d.Seconds())
		s.fold(label, &tr.virt, &tr.sinkFP)
	}
	return r, err
}

// runSweep times one sweep.Run call.
func (tr *tracer) runSweep(fn func() (*sweep.Result, error)) (*sweep.Result, error) {
	start := time.Now()
	res, err := fn()
	end := time.Now()
	tr.record("sweep.Run", start, end)
	tr.hostValue("sweep.run_host_s", end.Sub(start).Seconds())
	return res, err
}

// instants records zero-length spans at the given offsets (seconds since
// the last recorded span started) under that span.
func (tr *tracer) instants(name string, at []float64) {
	if !tr.on || len(tr.spans) == 0 {
		return
	}
	p := tr.spans[len(tr.spans)-1]
	for _, a := range at {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: p.ID, Name: name, Start: p.Start + a, End: p.Start + a})
	}
}

func (tr *tracer) hostValue(name string, v float64) {
	if tr.on {
		tr.host.add(name, v)
	}
}

// countSink is the benchmark's wrapping telemetry sink. It counts records
// by kind and folds the virtual quantities the per-layer report needs,
// forwarding every record to the sink it wraps, if any. Sums of virtual
// times are kept in integer nanoseconds so that the arrival order of
// concurrent ranks cannot change them.
type countSink struct {
	gp    int
	inner telemetry.Sink

	emits  atomic.Int64
	emitNs atomic.Int64

	mu      sync.Mutex
	counts  map[string]int64 // records by kind, bytes and other integer sums
	ns      map[string]int64 // virtual-time sums in nanoseconds
	cycle   map[int]int64    // phase cycle -> slowest node's cycle time, ns
	decided map[string]telemetry.DecisionRecord
}

func newCountSink(gp int, inner telemetry.Sink) *countSink {
	return &countSink{gp: gp, inner: inner, counts: map[string]int64{}, ns: map[string]int64{},
		cycle: map[int]int64{}, decided: map[string]telemetry.DecisionRecord{}}
}

func nsOf(s float64) int64 { return int64(math.Round(s * 1e9)) }

// Emit implements telemetry.Sink.
func (s *countSink) Emit(r telemetry.Record) {
	start := time.Now()
	s.mu.Lock()
	s.counts["records"]++
	s.counts["kind."+r.Kind()]++
	switch v := r.(type) {
	case telemetry.IterationRecord:
		s.ns["compute"] += nsOf(v.ComputeS)
		s.ns["comm"] += nsOf(v.CommS)
		s.ns["wait"] += nsOf(v.WaitS)
		s.ns["hidden"] += v.HiddenWireNs
		if t := nsOf(v.ComputeS + v.CommS + v.WaitS); t > s.cycle[v.Cycle] {
			s.cycle[v.Cycle] = t
		}
	case telemetry.DecisionRecord:
		// Every active node emits the same decision; keep the lowest node's.
		k := fmt.Sprintf("%08d/%s/%s", v.Cycle, v.Method, v.Chosen)
		if d, ok := s.decided[k]; !ok || v.Node < d.Node {
			s.decided[k] = v
		}
	case telemetry.RedistRecord:
		s.counts["redist_sent"] += v.BytesSent
		s.counts["redist_recv"] += v.BytesRecv
		s.counts["lost_rows"] += int64(v.LostRows)
	case telemetry.MembershipRecord:
		s.counts[fmt.Sprintf("member/%d/%s", v.Cycle, v.Change)] = 1
	case telemetry.FailureRecord:
		s.counts["failures"]++
	case telemetry.RMARecord:
		s.counts["rma_bytes"] += v.Bytes
		s.ns["rma_stall"] += nsOf(v.StallS)
	}
	s.mu.Unlock()
	if s.inner != nil {
		s.inner.Emit(r)
	}
	s.emits.Add(1)
	s.emitNs.Add(int64(time.Since(start)))
}

// fold adds the sink's totals to the per-layer sums and its deterministic
// contents to the fingerprint.
func (s *countSink) fold(label string, virt *layerSums, fp *fingerprint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	members := 0
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
		if len(k) > 7 && k[:7] == "member/" {
			members++
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fp.add(label+" "+k, s.counts[k])
	}
	for _, k := range []string{"compute", "comm", "wait", "hidden", "rma_stall"} {
		fp.add(label+" ns."+k, s.ns[k])
	}
	virt.add("telemetry.records", float64(s.counts["records"]))
	virt.add("core.redist_bytes_sent", float64(s.counts["redist_sent"]))
	virt.add("core.redist_bytes_recv", float64(s.counts["redist_recv"]))
	virt.add("core.lost_rows", float64(s.counts["lost_rows"]))
	virt.add("core.membership_changes", float64(members))
	virt.add("core.failures", float64(s.counts["failures"]))
	virt.add("mpi.rma_epochs", float64(s.counts["kind."+telemetry.KindRMA]))
	virt.add("mpi.rma_bytes", float64(s.counts["rma_bytes"]))
	virt.add("mpi.rma_stall_s", float64(s.ns["rma_stall"])/1e9)
	virt.add("apps.compute_virt_s", float64(s.ns["compute"])/1e9)
	virt.add("mpi.comm_virt_s", float64(s.ns["comm"])/1e9)
	virt.add("mpi.wait_virt_s", float64(s.ns["wait"])/1e9)
	virt.add("mpi.hidden_wire_virt_s", float64(s.ns["hidden"])/1e9)

	dk := make([]string, 0, len(s.decided))
	for k := range s.decided {
		dk = append(dk, k)
	}
	sort.Strings(dk)
	virt.add("core.decisions", float64(len(dk)))
	var installed []telemetry.DecisionRecord
	for _, k := range dk {
		d := s.decided[k]
		virt.add("core.candidates", float64(len(d.Candidates)))
		if len(d.Counts) > 0 && d.PredictedS > 0 {
			installed = append(installed, d)
		}
	}
	// Prediction error of each installed distribution: |predicted -
	// measured| / measured, measured as the mean slowest-node cycle time
	// over the following grace window (cut short by the next decision).
	w := s.gp
	if w < 1 {
		w = 1
	}
	for i, d := range installed {
		last := d.Cycle + w
		if i+1 < len(installed) && installed[i+1].Cycle <= last {
			last = installed[i+1].Cycle - 1
		}
		var sum int64
		n := 0
		for c := d.Cycle + 1; c <= last; c++ {
			if t, ok := s.cycle[c]; ok {
				sum += t
				n++
			}
		}
		if n == 0 || sum == 0 {
			continue
		}
		measured := float64(sum) / float64(n) / 1e9
		virt.add("core.predict_err_sum", math.Abs(d.PredictedS-measured)/measured)
		virt.add("core.predict_err_n", 1)
	}
}
