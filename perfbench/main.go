// Command perfbench is the repository's benchmark. It runs one workload
// (figures, sweep or large-world) as a closed loop of units for a fixed
// measuring time, each unit in its own child process under a timeout, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as a table followed by one JSON line:
//
//	bash perfbench/run.sh --workload figures --seed 0 --seconds 30 --trace 0
//
// Everything is measured from outside the program: the benchmark times the
// calls it makes into the public entry points (apps/*.Run, exp.RunScale,
// sweep.Run), wraps the hooks the layers expose (core.Config.Telemetry,
// sweep.Options.OnCell), and attributes CPU and allocation by package from
// profiles of the traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: figures, sweep or large-world")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (%d reproduces the paper's scenarios; %d is held out)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 30, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	child := flag.String("child", "", "internal: run this one unit and print its result")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(childMain(*workload, *seed, *child, *trace == 1))
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir holds the ledger and the traced runs' span files.
const outDir = ".bench_build/perfbench-out"

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed uint64, measure time.Duration, traced bool) error {
	t0 := time.Now()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var setups []float64
	var us []unit
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if us, err = setup(workload, seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	led, err := openLedger(outDir)
	if err != nil {
		return err
	}

	results := loop(self, workload, seed, us, measure, traced, t0)

	var problems []string
	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
			problems = append(problems, fmt.Sprintf("unit %s failed: %s", r.Key, r.Err))
		}
	}
	byKey := map[string][]unitResult{}
	for _, r := range results {
		if r.Err == "" {
			byKey[r.Key] = append(byKey[r.Key], r)
		}
	}
	for _, u := range us {
		if len(byKey[u.key]) == 0 {
			problems = append(problems, fmt.Sprintf("unit %s never completed", u.key))
		}
		problems = append(problems, determinism(led, workload, seed, u.key, byKey[u.key])...)
	}
	if err := led.save(); err != nil {
		return err
	}

	e2e := endToEnd(us, byKey, median(setups))
	layers := perLayer(us, byKey)
	if traced {
		if d := math.Abs(layers.sumCPU() - layers["profile.cpu_s"]); d > 1e-6*math.Max(1, layers["profile.cpu_s"]) {
			problems = append(problems, fmt.Sprintf("per-layer cpu_s sum %.6f != profile total %.6f", layers.sumCPU(), layers["profile.cpu_s"]))
		}
		if err := writeTrace(workload, seed, t0, results, layers); err != nil {
			return err
		}
	}

	res := result{Correct: len(problems) == 0, Attempted: len(results), Failed: failed, Metrics: map[string]metric{}}
	passes := 0
	if len(us) > 0 {
		passes = len(pick(byKey[us[0].key], false))
	}
	fmt.Printf("# perfbench workload=%s seed=%d traced=%v units=%d passes=%d attempted=%d failed=%d\n",
		workload, seed, traced, len(us), passes, res.Attempted, res.Failed)
	fmt.Printf("%-32s %16s  %s\n", "fail_ratio", fmtVal(float64(failed)/float64(max(1, len(results)))), "ratio")
	for _, m := range endToEndMetrics {
		v := e2e[m.name]
		fmt.Printf("%-32s %16s  %s\n", m.name, fmtVal(v), m.unit)
		if !traced {
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	if traced {
		for _, m := range perLayerMetrics {
			v := layers[m.name]
			fmt.Printf("%-32s %16s  %s\n", m.name, fmtVal(v), m.unit)
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fmtVal(v float64) string { return fmt.Sprintf("%.6g", v) }

// determinism checks that every execution of a unit produced the same
// virtual outputs: untraced and traced alike, within this run, and against
// every earlier run of the same seed recorded in the ledger.
func determinism(led *ledger, workload string, seed uint64, key string, rs []unitResult) []string {
	var out []string
	base := fmt.Sprintf("%s/%d/%s", workload, seed, key)
	for _, r := range rs {
		if err := led.check(base, r.FP); err != nil {
			out = append(out, "determinism: "+err.Error())
			break
		}
	}
	for _, r := range rs {
		if !r.Traced {
			continue
		}
		if err := led.check(base+"/traced", r.SinkFP); err != nil {
			out = append(out, "determinism: "+err.Error())
			break
		}
	}
	return out
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"rank_steps_per_s", "1/s"},
	{"alloc_mb", "MiB"},
	{"gc_cycles", "count"},
	{"gc_cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"virt_makespan_s", "s"},
	{"virt_vs_dedicated", "ratio"},
}

// perLayerMetrics are reported by every traced run; a layer a workload
// does not run reads 0.
var perLayerMetrics = []metricDef{
	{"apps.cpu_s", "s"}, {"matrix.cpu_s", "s"}, {"mpi.cpu_s", "s"}, {"core.cpu_s", "s"},
	{"distribution.cpu_s", "s"}, {"drsd.cpu_s", "s"}, {"cluster.cpu_s", "s"}, {"telemetry.cpu_s", "s"},
	{"sweep.cpu_s", "s"}, {"runtime.cpu_s", "s"}, {"runtime.gc_cpu_s", "s"}, {"runtime.sched_cpu_s", "s"},
	{"other.cpu_s", "s"}, {"profile.cpu_s", "s"},
	{"apps.alloc_mb", "MiB"}, {"matrix.alloc_mb", "MiB"}, {"mpi.alloc_mb", "MiB"}, {"core.alloc_mb", "MiB"},
	{"distribution.alloc_mb", "MiB"}, {"drsd.alloc_mb", "MiB"}, {"cluster.alloc_mb", "MiB"},
	{"telemetry.alloc_mb", "MiB"}, {"sweep.alloc_mb", "MiB"}, {"other.alloc_mb", "MiB"}, {"profile.alloc_mb", "MiB"},
	{"apps.run_host_s_p50", "s"}, {"apps.run_host_s_p90", "s"}, {"apps.compute_virt_s", "s"},
	{"telemetry.records", "count"}, {"telemetry.emit_host_s", "s"},
	{"core.redists", "count"}, {"core.redist_bytes_sent", "bytes"}, {"core.redist_bytes_recv", "bytes"},
	{"core.redist_virt_s", "s"}, {"core.membership_changes", "count"}, {"core.failures", "count"},
	{"core.lost_rows", "count"}, {"core.decisions", "count"}, {"core.candidates", "count"},
	{"core.predict_err", "ratio"}, {"core.refresh_stall_virt_s", "s"},
	{"mpi.wait_virt_s", "s"}, {"mpi.comm_virt_s", "s"}, {"mpi.hidden_wire_virt_s", "s"},
	{"mpi.p2p_msgs", "count"}, {"mpi.p2p_bytes", "bytes"}, {"mpi.coll_ops", "count"}, {"mpi.coll_bytes", "bytes"},
	{"mpi.rma_epochs", "count"}, {"mpi.rma_bytes", "bytes"}, {"mpi.rma_stall_s", "s"},
	{"sweep.cells", "count"}, {"sweep.cells_failed", "count"}, {"sweep.rounds", "count"}, {"sweep.run_host_s", "s"},
	{"trace.overhead_s", "s"},
}

// endToEnd folds the untraced executions into the end-to-end metrics. Host
// quantities are per pass: the sum over units of each unit's median, so a
// run's figure does not depend on how many passes fitted in its time.
func endToEnd(us []unit, byKey map[string][]unitResult, setupS float64) map[string]float64 {
	m := map[string]float64{"setup_s": setupS}
	var steps int64
	var ratios []float64
	for _, u := range us {
		rs := pick(byKey[u.key], false)
		if len(rs) == 0 {
			continue
		}
		m["wall_s"] += medianOf(rs, func(r unitResult) float64 { return r.HostS })
		m["cpu_s"] += medianOf(rs, func(r unitResult) float64 { return r.CPUS })
		m["alloc_mb"] += medianOf(rs, func(r unitResult) float64 { return r.AllocMiB })
		m["gc_cycles"] += medianOf(rs, func(r unitResult) float64 { return r.GCCycles })
		m["gc_cpu_s"] += medianOf(rs, func(r unitResult) float64 { return r.GCCPUS })
		m["peak_rss_mb"] = math.Max(m["peak_rss_mb"], medianOf(rs, func(r unitResult) float64 { return r.RSSMiB }))
		m["virt_makespan_s"] += rs[0].MakespanS
		steps += rs[0].RankSteps
		ratios = append(ratios, rs[0].DedRatios...)
	}
	if m["wall_s"] > 0 {
		m["rank_steps_per_s"] = float64(steps) / m["wall_s"]
	}
	for _, r := range ratios {
		m["virt_vs_dedicated"] += r / float64(len(ratios))
	}
	return m
}

// perLayer folds the traced executions into the per-layer metrics: each
// unit's virtual counts (identical in every execution) and host and
// profile quantities, the host time of every untraced Run call, and the
// tracing overhead.
func perLayer(us []unit, byKey map[string][]unitResult) layerSums {
	out := layerSums{}
	var runHost []float64
	var tracedWall, plainWall float64
	for _, u := range us {
		plain, traced := pick(byKey[u.key], false), pick(byKey[u.key], true)
		for _, r := range plain {
			runHost = append(runHost, r.RunHost...)
		}
		if len(traced) == 0 || len(plain) == 0 {
			continue
		}
		tracedWall += medianOf(traced, func(r unitResult) float64 { return r.HostS })
		plainWall += medianOf(plain, func(r unitResult) float64 { return r.HostS })
		// One execution stands for the unit, so that the profile's layer
		// buckets still partition its total: the one of median host time.
		sort.Slice(traced, func(i, j int) bool { return traced[i].HostS < traced[j].HostS })
		rep := traced[(len(traced)-1)/2]
		for k, v := range rep.Virt {
			out.add(k, v)
		}
		for k, v := range rep.Host {
			out.add(k, v)
		}
	}
	if n := out["core.predict_err_n"]; n > 0 {
		out["core.predict_err"] = out["core.predict_err_sum"] / n
	}
	delete(out, "core.predict_err_sum")
	delete(out, "core.predict_err_n")
	out["apps.run_host_s_p50"] = percentile(runHost, 50)
	out["apps.run_host_s_p90"] = percentile(runHost, 90)
	out["trace.overhead_s"] = tracedWall - plainWall
	return out
}

// sumCPU adds the per-layer CPU buckets, which partition the profile.
func (l layerSums) sumCPU() float64 {
	s := 0.0
	for k, v := range l {
		if strings.HasSuffix(k, ".cpu_s") && strings.Count(k, ".") == 1 && k != "profile.cpu_s" {
			s += v
		}
	}
	return s
}

func pick(rs []unitResult, traced bool) []unitResult {
	var out []unitResult
	for _, r := range rs {
		if r.Traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func medianOf(rs []unitResult, f func(unitResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// writeTrace writes the traced run's spans (workload -> unit execution ->
// entry-point calls and wrapped-hook aggregates) and per-layer table.
func writeTrace(workload string, seed uint64, t0 time.Time, results []unitResult, layers layerSums) error {
	spans := []span{{ID: 1, Name: "workload " + workload, End: time.Since(t0).Seconds()}}
	for _, r := range results {
		mode := "untraced"
		if r.Traced {
			mode = "traced"
		}
		uid := len(spans) + 1
		spans = append(spans, span{ID: uid, Parent: 1, Name: fmt.Sprintf("unit %s (%s)", r.Key, mode), Start: r.Start, End: r.End})
		base := len(spans)
		for _, s := range r.Spans {
			s.ID += base
			if s.Parent == 0 {
				s.Parent = uid
			} else {
				s.Parent += base
			}
			s.Start += r.Start
			s.End += r.Start
			spans = append(spans, s)
		}
	}
	b, err := json.MarshalIndent(struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Spans    []span    `json:"spans"`
		Layers   layerSums `json:"per_layer"`
	}{workload, seed, spans, layers}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed)), b, 0o644)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
