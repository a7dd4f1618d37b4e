package sweep

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// stepScenario is the harness case for the step-primitive equivalence
// tests: the smoke workload's jacobi cell with a competing-process arrival,
// a mid-run crash and unconditional drop — every adaptation path a gated
// run must reproduce exactly.
func stepScenario() (*Grid, Cell) {
	g := Smoke()
	c := Cell{Scenario: "jacobi", Ranks: 8, GP: 3, Overlap: false, Fault: "crash", Replicate: false}
	return &g, c
}

// monolithicTrace runs the cell's world without a gate and returns its
// sorted record stream plus the application result.
func monolithicTrace(t *testing.T, g *Grid, c Cell) ([]telemetry.Record, apps.Result) {
	t.Helper()
	ring := telemetry.NewRing(g.RingCap)
	base := core.DefaultConfig()
	base.Drop = core.DropAlways
	base.GracePeriod = c.GP
	base.Replicate = c.Replicate
	base.Telemetry = ring
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
	cfg.Overlap = c.Overlap
	cfg.Core = base
	spec := cluster.Uniform(c.Ranks).With(cluster.CycleEvent(g.CPNode, g.CPCycle, +1))
	spec.Faults = append(spec.Faults, fault.CrashAtCycle(g.CrashNode, g.CrashCycle))
	res, err := jacobi.Run(cluster.New(spec), cfg)
	if err != nil {
		t.Fatalf("monolithic run: %v", err)
	}
	recs := ring.Records()
	telemetry.Sort(recs)
	return recs, res
}

func jsonl(t *testing.T, recs []telemetry.Record) string {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, recs); err != nil {
		t.Fatalf("encode records: %v", err)
	}
	return buf.String()
}

// TestStepwiseMatchesMonolithic drives a world one ProcessNextEvent at a
// time from outside and asserts its telemetry is byte-identical to the same
// world run monolithically: the gate is pure wall-clock control and leaves
// no trace in virtual time.
func TestStepwiseMatchesMonolithic(t *testing.T) {
	g, c := stepScenario()
	wantRecs, wantRes := monolithicTrace(t, g, c)
	want := jsonl(t, wantRecs)

	w := startWorld(g, c)
	steps := 0
	for w.gate.HasPendingEvents() {
		last := w.gate.PeekNextEventTime()
		w.gate.ProcessNextEvent()
		steps++
		if w.gate.HasPendingEvents() {
			if next := w.gate.PeekNextEventTime(); next < last {
				t.Fatalf("step %d: next event time %v went backwards from %v", steps, next, last)
			}
		}
	}
	out := <-w.done
	if out.err != nil {
		t.Fatalf("gated run: %v", out.err)
	}
	if steps != g.Iters {
		t.Errorf("gated run took %d steps, want %d (one per phase cycle)", steps, g.Iters)
	}
	recs := w.ring.Records()
	telemetry.Sort(recs)
	if got := jsonl(t, recs); got != want {
		t.Errorf("stepwise trace differs from monolithic run (%d vs %d bytes)", len(got), len(want))
	}
	if out.res.Checksum != wantRes.Checksum || out.res.Elapsed != wantRes.Elapsed || out.res.Redists != wantRes.Redists {
		t.Errorf("stepwise result %+v != monolithic %+v", out.res, wantRes)
	}
}

// TestWorldGateCrashDoesNotWedge pins the rank-exit wiring: a world whose
// ranks die or finish must report no pending events instead of blocking
// the controller forever.
func TestWorldGateCrashDoesNotWedge(t *testing.T) {
	g, c := stepScenario()
	w := startWorld(g, c)
	for w.gate.HasPendingEvents() {
		w.gate.ProcessNextEvent()
	}
	out := <-w.done
	if out.err != nil {
		t.Fatalf("run: %v", out.err)
	}
	crashed := 0
	for _, rs := range out.res.Stats {
		if rs.Crashed {
			crashed++
		}
	}
	if crashed != 1 {
		t.Fatalf("want exactly 1 crashed rank, got %d", crashed)
	}
	// Quiescent and complete: further step calls are harmless no-ops.
	w.gate.ProcessNextEvent()
	if w.gate.HasPendingEvents() {
		t.Error("completed world still reports pending events")
	}
}

// smokeReport runs the smoke grid at the given pool width and returns the
// deterministic report (wall-time lines stripped).
func smokeReport(t *testing.T, jobs int) string {
	t.Helper()
	r, err := Run(Options{Grid: Smoke(), Jobs: jobs})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# wall-time:") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestSweepDeterministicAcrossJobs is the engine's determinism contract:
// the smoke report is byte-identical between a serial pool and a wide pool
// under a different GOMAXPROCS. Run with -race in CI.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke grid; skipped in -short")
	}
	serial := smokeReport(t, 1)

	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	wide := smokeReport(t, 8)

	if serial != wide {
		t.Errorf("report differs between -jobs 1 and -jobs 8/GOMAXPROCS=4")
	}
	cells := strings.Count(serial, "\ncell ")
	if cells < 48 {
		t.Errorf("smoke grid has %d cells, want >= 48", cells)
	}
	if !strings.Contains(serial, "failed=0") {
		t.Errorf("smoke sweep reported failures:\n%s", serial)
	}
}

// TestSmokeGridCoversAxes pins the smoke grid shape: every axis value
// appears, and the enumeration covers the full cross product.
func TestSmokeGridCoversAxes(t *testing.T) {
	g := Smoke()
	if err := g.Validate(); err != nil {
		t.Fatalf("smoke grid invalid: %v", err)
	}
	cells := g.Cells()
	want := len(g.Scenarios) * len(g.Ranks) * len(g.GPs) * len(g.Overlaps) * len(g.Faults) * len(g.Reps) * len(g.RMAs) * len(g.Resizes)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	if len(cells) < 48 {
		t.Fatalf("smoke grid has %d cells, want >= 48", len(cells))
	}
	keys := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries Index %d", i, c.Index)
		}
		if keys[c.Key()] {
			t.Fatalf("duplicate cell key %s", c.Key())
		}
		keys[c.Key()] = true
	}
}

// TestStreamedCellsMatchReport pins the -stream contract: rows delivered
// through OnCell, re-sorted into enumeration order, encode byte-identically
// to the batch WriteJSONL report, and every cell is delivered exactly once.
func TestStreamedCellsMatchReport(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;overlap=0;iters=16;resizecycle=8"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	var streamed []CellResult
	r, err := Run(Options{Grid: g, Jobs: 4, OnCell: func(cr CellResult) {
		streamed = append(streamed, cr)
	}})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(streamed) != len(r.Cells) {
		t.Fatalf("OnCell delivered %d cells, want %d", len(streamed), len(r.Cells))
	}
	sort.Slice(streamed, func(i, j int) bool { return streamed[i].Cell.Index < streamed[j].Cell.Index })
	var live bytes.Buffer
	enc := json.NewEncoder(&live)
	for i := range streamed {
		if err := enc.Encode(&streamed[i]); err != nil {
			t.Fatalf("encode streamed cell: %v", err)
		}
	}
	var batch bytes.Buffer
	if err := r.WriteJSONL(&batch); err != nil {
		t.Fatalf("batch report: %v", err)
	}
	if !bytes.Equal(live.Bytes(), batch.Bytes()) {
		t.Error("re-sorted streamed rows differ from the batch JSONL report")
	}
}

func TestParseSpec(t *testing.T) {
	g := Smoke()
	err := g.ParseSpec("scen=jacobi;ranks=4;gp=7;overlap=1;fault=none;rep=0;rma=1;resize=grow;rows=64;cols=48;iters=20;cost=500;resizecycle=12;resizeadd=2")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(g.Cells()) != 1 {
		t.Fatalf("want 1 cell, got %d", len(g.Cells()))
	}
	c := g.Cells()[0]
	if c.Scenario != "jacobi" || c.Ranks != 4 || c.GP != 7 || !c.Overlap || c.Fault != "none" || c.Replicate || !c.RMA || c.Resize != "grow" {
		t.Errorf("unexpected cell %+v", c)
	}
	if g.Rows != 64 || g.Cols != 48 || g.Iters != 20 || g.CostPerElem != 500 || g.ResizeCycle != 12 || g.ResizeAdd != 2 {
		t.Errorf("workload knobs not applied: %+v", g)
	}
	for _, bad := range []string{"bogus=1", "ranks=x", "overlap=maybe", "scen"} {
		g := Smoke()
		if err := g.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	for _, invalid := range []string{"scen=quux", "ranks=1", "fault=flood", "iters=0", "resize=shuffle", "resize=grow;resizeadd=0", "resize=grow;resizecycle=99"} {
		g := Smoke()
		if err := g.ParseSpec(invalid); err != nil {
			t.Fatalf("parse %q: %v", invalid, err)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted %q", invalid)
		}
	}
}

// countingWriter tallies every byte delivered through Write, so a test can
// assert each byte was written exactly once (linear write amplification).
type countingWriter struct {
	buf     bytes.Buffer
	written int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.written += len(p)
	return c.buf.Write(p)
}

// TestStreamWriterByteIdentical feeds the in-order flush frontier a sweep's
// cells in several adversarial completion orders: the output must be
// byte-identical to the batch WriteJSONL report every time, with nothing
// pending at the end and every byte written exactly once.
func TestStreamWriterByteIdentical(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;overlap=0;iters=16;resizecycle=8"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Options{Grid: g, Jobs: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	var batch bytes.Buffer
	if err := r.WriteJSONL(&batch); err != nil {
		t.Fatalf("batch report: %v", err)
	}
	n := len(r.Cells)
	orders := map[string][]int{
		"forward":    make([]int, n),
		"reverse":    make([]int, n),
		"evens-odds": nil,
	}
	for i := 0; i < n; i++ {
		orders["forward"][i] = i
		orders["reverse"][i] = n - 1 - i
	}
	for i := 0; i < n; i += 2 {
		orders["evens-odds"] = append(orders["evens-odds"], i)
	}
	for i := 1; i < n; i += 2 {
		orders["evens-odds"] = append(orders["evens-odds"], i)
	}
	for name, order := range orders {
		cw := &countingWriter{}
		sw := NewStreamWriter(cw)
		for _, idx := range order {
			sw.Add(r.Cells[idx])
		}
		if err := sw.Err(); err != nil {
			t.Fatalf("%s: stream error: %v", name, err)
		}
		if p := sw.Pending(); p != 0 {
			t.Fatalf("%s: %d rows still pending after the last add", name, p)
		}
		if !bytes.Equal(cw.buf.Bytes(), batch.Bytes()) {
			t.Errorf("%s: streamed file differs from the batch JSONL report", name)
		}
		if cw.written != batch.Len() {
			t.Errorf("%s: wrote %d bytes for a %d-byte file — write amplification is not linear",
				name, cw.written, batch.Len())
		}
	}
}

// TestStreamWriterLiveFromScheduler wires the frontier directly into a
// concurrent sweep as OnCell — the production -stream path — and checks the
// file equals the batch report without any re-sort step.
func TestStreamWriterLiveFromScheduler(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;overlap=0;iters=16;resizecycle=8"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	cw := &countingWriter{}
	sw := NewStreamWriter(cw)
	r, err := Run(Options{Grid: g, Jobs: 4, OnCell: sw.Add})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if err := sw.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if p := sw.Pending(); p != 0 {
		t.Fatalf("%d rows never flushed", p)
	}
	var batch bytes.Buffer
	if err := r.WriteJSONL(&batch); err != nil {
		t.Fatalf("batch report: %v", err)
	}
	if !bytes.Equal(cw.buf.Bytes(), batch.Bytes()) {
		t.Error("live-streamed file differs from the batch JSONL report")
	}
}

// TestGrowSkewChecksums pins the skewed-resize cells: the smoke grid's
// growskew axis must actually resize (a redistribution at the arrivals) and
// must not corrupt data — on fault-free cells the checksum is invariant
// across the whole resize axis (none/grow/growskew), since membership and
// skew change only where rows live, never their values.
func TestGrowSkewChecksums(t *testing.T) {
	growChecksums(t, "scen=jacobi;ranks=4;rep=0;fault=none")
}

// TestParticlesGrowChecksums runs the particle simulation through mid-run
// growth: joiners take their particles from the admission redistribution
// rather than seeding them, so every fault-free cell's checksum equals its
// rznone sibling's, and crash cells finish too.
func TestParticlesGrowChecksums(t *testing.T) {
	growChecksums(t, "scen=particles;ranks=4;rep=0,1;rma=0,1;fault=none")
	g := Smoke()
	if err := g.ParseSpec("scen=particles;ranks=4;rep=1;rma=0;fault=crash"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Options{Grid: g, Jobs: 2})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, c := range r.Cells {
		if c.Err != "" {
			t.Errorf("cell %s failed: %s", c.Key, c.Err)
		}
	}
}

// TestValidateRejectsCGGrow pins the rejection of cg growth cells: cg has
// no mid-run joiner support, so such a cell would deadlock its world.
func TestValidateRejectsCGGrow(t *testing.T) {
	for _, rz := range []string{"grow", "growskew"} {
		g := Smoke()
		if err := g.ParseSpec("scen=jacobi,cg;resize=none," + rz); err != nil {
			t.Fatalf("parse: %v", err)
		}
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "joiner support") {
			t.Errorf("resize=%s: Validate = %v, want a missing joiner support error", rz, err)
		}
	}
	g := Smoke()
	if err := g.ParseSpec("scen=cg,particles;resize=none"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("cg without growth rejected: %v", err)
	}
}

// growChecksums sweeps the smoke grid narrowed by spec and asserts the
// resize axis never changes a cell's checksum.
func growChecksums(t *testing.T, spec string) {
	t.Helper()
	g := Smoke()
	if err := g.ParseSpec(spec); err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Options{Grid: g, Jobs: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// Group by everything but the resize axis.
	groups := map[string]map[string]CellStats{}
	for _, c := range r.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Key, c.Err)
		}
		base := strings.TrimSuffix(c.Key, "/rz"+c.Cell.Resize)
		if groups[base] == nil {
			groups[base] = map[string]CellStats{}
		}
		groups[base][c.Cell.Resize] = c.Stats
	}
	for base, byRz := range groups {
		skew, ok := byRz["growskew"]
		if !ok {
			t.Fatalf("%s: no growskew cell", base)
		}
		if skew.Redists < 1 {
			t.Errorf("%s/rzgrowskew never redistributed — the resize did not happen", base)
		}
		for rz, st := range byRz {
			if st.Checksum != skew.Checksum || st.CheckInt != skew.CheckInt {
				t.Errorf("%s: checksum differs between rz%s (%v) and rzgrowskew (%v)",
					base, rz, st.Checksum, skew.Checksum)
			}
		}
	}
}
