package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// unitResult is one execution of one unit, as the child reports it; the
// parent adds the child's CPU time and peak RSS from its rusage.
type unitResult struct {
	Key       string             `json:"key"`
	Traced    bool               `json:"traced"`
	Err       string             `json:"err,omitempty"`
	HostS     float64            `json:"host_s"`
	AllocMiB  float64            `json:"alloc_mib"`
	GCCycles  float64            `json:"gc_cycles"`
	GCCPUS    float64            `json:"gc_cpu_s"`
	RankSteps int64              `json:"rank_steps"`
	MakespanS float64            `json:"makespan_s"`
	DedRatios []float64          `json:"ded_ratios"`
	FP        string             `json:"fp"`
	SinkFP    string             `json:"sink_fp,omitempty"`
	Virt      map[string]float64 `json:"virt,omitempty"`
	Host      map[string]float64 `json:"host,omitempty"`
	RunHost   []float64          `json:"run_host,omitempty"`
	Spans     []span             `json:"spans,omitempty"`

	CPUS   float64 `json:"cpu_s"`
	RSSMiB float64 `json:"rss_mib"`
	Start  float64 `json:"start_s"` // in the parent's timeline
	End    float64 `json:"end_s"`
}

// childMain runs one unit in this process and prints its unitResult.
func childMain(workload string, seed uint64, key string, traced bool) int {
	if traced {
		// Finer allocation sampling for the per-layer attribution.
		runtime.MemProfileRate = 64 << 10
	}
	us, err := units(workload, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var u *unit
	for i := range us {
		if us[i].key == key {
			u = &us[i]
		}
	}
	if u == nil {
		fmt.Fprintf(os.Stderr, "no unit %q in %s\n", key, workload)
		return 2
	}
	res := unitResult{Key: key, Traced: traced, RankSteps: u.rankSteps}
	tr := &tracer{on: traced, t0: time.Now()}
	var cpuProf bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	m0 := readRuntimeMetrics()
	start := time.Now()
	o, err := u.run(tr)
	res.HostS = time.Since(start).Seconds()
	m1 := readRuntimeMetrics()
	if err != nil {
		res.Err = err.Error()
	}
	res.AllocMiB = (m1[0] - m0[0]) / (1 << 20)
	res.GCCycles = m1[1] - m0[1]
	res.GCCPUS = m1[2] - m0[2]
	if traced {
		pprof.StopCPUProfile()
		if err := profileLayers(&cpuProf, &tr.host); err != nil && res.Err == "" {
			res.Err = err.Error()
		}
		if u.replay != nil && res.Err == "" {
			if err := u.replay(tr); err != nil {
				res.Err = err.Error()
			}
		}
		for k, v := range tr.virt {
			o.virt.add(k, v)
		}
		res.Host, res.SinkFP, res.Spans = tr.host, tr.sinkFP.sum(), tr.spans
	}
	res.MakespanS, res.DedRatios, res.FP, res.Virt = o.makespanS, o.dedRatios, o.fp.sum(), o.virt
	res.RunHost = tr.runHost
	if err := json.NewEncoder(os.Stdout).Encode(&res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}

// profileLayers folds the CPU profile and the allocation profile into
// per-layer sums.
func profileLayers(cpu *bytes.Buffer, out *layerSums) error {
	p, err := parseProfile(cpu.Bytes())
	if err != nil {
		return err
	}
	attributeCPU(p, out)
	runtime.GC() // the allocation profile is as of the last GC
	var heap bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&heap, 0); err != nil {
		return err
	}
	if p, err = parseProfile(heap.Bytes()); err != nil {
		return err
	}
	attributeAlloc(p, out)
	return nil
}

// readRuntimeMetrics returns bytes allocated, GC cycles and GC CPU
// seconds. The GC CPU leaves out idle-priority marking, which runs only on
// otherwise idle CPUs and so varies with how idle the host is rather than
// with the program.
func readRuntimeMetrics() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var v [4]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return [3]float64{v[0], v[1], v[2] - v[3]}
}

// Time limits: the closed loop starts no unit after the run's measuring
// time, a unit may take at most unitTimeout, and no unit runs past
// hardStop from the start, so a run always ends within its budget.
const (
	unitTimeout = 60 * time.Second
	hardStop    = 150 * time.Second
)

// runUnit executes one unit in a child process under a timeout. A timeout,
// a crash (a Go fatal error such as a deadlock), a non-zero exit or
// unreadable output is a failed unit, never a dead harness.
func runUnit(self, workload string, seed uint64, key string, traced bool, limit time.Duration) unitResult {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", key, "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--trace", tr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs()))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	err := cmd.Run()
	var res unitResult
	if jerr := json.Unmarshal(stdout.Bytes(), &res); jerr != nil && err == nil {
		err = fmt.Errorf("unreadable unit output: %w", jerr)
	}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
			res.RSSMiB = float64(ru.Maxrss) / 1024
		}
	}
	res.Key, res.Traced = key, traced
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			err = fmt.Errorf("timed out after %v", limit)
		}
		res.Err = fmt.Sprintf("%v: %s", err, errLine(stderr.String()))
	}
	return res
}

// errLine picks the line of a child's standard error that says why it
// died: a Go fatal error or panic, else the last line.
func errLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "fatal error") || strings.HasPrefix(l, "panic") {
			return l
		}
	}
	return lines[len(lines)-1]
}

// loop runs the workload's units as a closed loop: one unit after another,
// full passes over the list, for the given measuring time, and at least
// one whole pass. A traced run executes every unit untraced and then
// traced, so the two can be compared and the tracing overhead measured.
func loop(self, workload string, seed uint64, us []unit, measure time.Duration, traced bool, t0 time.Time) []unitResult {
	var out []unitResult
	for pass := 0; ; pass++ {
		for _, u := range us {
			elapsed := time.Since(t0)
			if pass > 0 && elapsed >= measure {
				return out
			}
			modes := []bool{false}
			if traced {
				modes = []bool{false, true}
			}
			for _, m := range modes {
				limit := hardStop - time.Since(t0)
				if limit > unitTimeout {
					limit = unitTimeout
				}
				start := time.Since(t0).Seconds()
				var r unitResult
				if limit <= 0 {
					r = unitResult{Key: u.key, Traced: m, Err: "not started: run out of time"}
				} else {
					r = runUnit(self, workload, seed, u.key, m, limit)
				}
				r.Start, r.End = start, time.Since(t0).Seconds()
				out = append(out, r)
			}
		}
		if time.Since(t0) >= measure {
			return out
		}
	}
}

// ledger persists each unit's virtual fingerprints across runs in the
// checkout, keyed by the benchmark binary, so that repeated runs of a seed
// (untraced and traced) are checked against each other.
type ledger struct {
	path    string
	Entries map[string]string `json:"entries"`
}

func openLedger(dir string) (*ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(self)
	if err != nil {
		return nil, err
	}
	h := sha256.Sum256(bin)
	l := &ledger{path: filepath.Join(dir, "ledger-"+hex.EncodeToString(h[:8])+".json"), Entries: map[string]string{}}
	b, err := os.ReadFile(l.path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", l.path, err)
	}
	return l, nil
}

// check records fp under key, or reports a mismatch with the recorded one.
func (l *ledger) check(key, fp string) error {
	if old, ok := l.Entries[key]; ok && old != fp {
		return fmt.Errorf("%s: fingerprint %s differs from an earlier run's %s", key, fp, old)
	}
	l.Entries[key] = fp
	return nil
}

func (l *ledger) save() error {
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}
