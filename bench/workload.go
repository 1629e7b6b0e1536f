package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"optimus/internal/exp"
	"optimus/internal/hv"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// workload is one benchmark workload: a fixed sweep of internal/exp, run on
// the experiments' committed seeds at quick scale. Every sweep point runs
// its simulated tenants to a fixed simulated horizon (a closed loop), one
// point at a time.
type workload struct {
	name string
	run  func() ([]*exp.Table, error)
}

// workloads are chosen to load different layers (see README.md):
// membench-read and membench-write share the audited DMA data plane but
// split at the read buffers and the copy-on-write write interposition, apps
// is dominated by the algorithm kernels and clone set-up, and sched by the
// event heap and context switches.
var workloads = []workload{
	{"membench-read", func() ([]*exp.Table, error) { return fig6(false) }},
	{"membench-write", func() ([]*exp.Table, error) { return fig6(true) }},
	{"apps", func() ([]*exp.Table, error) { return tables(exp.Fig7(exp.ScaleQuick)) }},
	{"sched", func() ([]*exp.Table, error) { return tables(exp.SchedFairness(exp.ScaleQuick)) }},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// fig6 runs MemBench at both page sizes in one direction; the 4K half
// carries the IOTLB pressure.
func fig6(writes bool) ([]*exp.Table, error) {
	var out []*exp.Table
	for _, ps := range []uint64{mem.PageSize2M, mem.PageSize4K} {
		t, err := exp.Fig6(ps, writes, exp.ScaleQuick)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func tables(t *exp.Table, err error) ([]*exp.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*exp.Table{t}, nil
}

func render(ts []*exp.Table) []byte {
	var b bytes.Buffer
	for _, t := range ts {
		t.Render(&b)
	}
	return b.Bytes()
}

// goldenDir holds each workload's expected tables, relative to the root of
// the checkout the benchmark runs from.
const goldenDir = "bench/golden"

func goldenPath(dir, name string) string { return filepath.Join(dir, name+".txt") }

// diffTables returns nil when the rendered tables equal the golden ones and
// otherwise an error naming the first line that differs.
func diffTables(name string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of tables>"
	}
	return fmt.Errorf("%s: tables differ from the golden file at line %d:\n  got:  %q\n  want: %q",
		name, i+1, line(gl), line(wl))
}

// writeGolden regenerates a workload's golden file from the current code.
func writeGolden(dir string, w workload) error {
	exp.SetParallelism(1)
	ts, err := w.run()
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return os.WriteFile(goldenPath(dir, w.name), render(ts), 0o644)
}

// roundResult is what a child process reports about the one round it ran.
type roundResult struct {
	// ReadyUnixNano is the wall clock when the process was ready to start
	// the workload; the parent subtracts its own spawn time to get the
	// process start-up part of set-up.
	ReadyUnixNano int64  `json:"ready_unix_nano"`
	RunnerNS      int64  `json:"runner_ns"`
	SetupNS       int64  `json:"setup_ns"` // inside exp set-up regions (assembly, provisioning, clone)
	CloneNS       int64  `json:"clone_ns"` // inside hv.Clone, a part of SetupNS
	Events        uint64 `json:"events"`
	HeapAllocs    uint64 `json:"heap_allocs"`
	HeapBytes     uint64 `json:"heap_bytes"`
	GCCycles      uint64 `json:"gc_cycles"`
	ResidentBytes uint64 `json:"resident_bytes"`
	SharedBytes   uint64 `json:"shared_bytes"`

	// Probes only: the duration of refWork, which measures host speed.
	RefNS int64 `json:"ref_ns,omitempty"`

	// Traced rounds only: the CPU profile folded into layers, and the
	// registry counters summed over every platform the sweep built.
	Layers   map[string]layerCost `json:"layers,omitempty"`
	Counters map[string]float64   `json:"counters,omitempty"`
}

// registryCounters are the platform registry counters the per-layer
// metrics divide by or report.
var registryCounters = []string{
	"hwmon.dma_requests", "shell.reads", "shell.writes",
	"iommu.hits", "iommu.spec_hits", "iommu.misses",
	"mem.cow_breaks", "hv.context_switches",
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() [3]uint64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]uint64
	for i := range s {
		out[i] = s[i].Value.Uint64()
	}
	return out
}

// Child modes: a probe stops where a round would start the workload and
// times refWork instead; untraced and traced rounds run the workload; micro
// runs the layer microbenchmarks.
const (
	modeProbe    = "probe"
	modeUntraced = "untraced"
	modeTraced   = "traced"
	modeMicro    = "micro"
)

// runRound runs one round of w in this process and checks its tables
// against the golden file. A traced round also records a CPU profile and
// every platform's metrics registry (registries only, no trace rings).
func runRound(w workload, mode string) (*roundResult, error) {
	want, err := os.ReadFile(goldenPath(goldenDir, w.name))
	if err != nil {
		return nil, err
	}
	exp.SetParallelism(1)
	var setupNS, cloneNS atomic.Int64
	exp.SetSetupObserver(func() func() {
		t0 := time.Now()
		return func() { setupNS.Add(int64(time.Since(t0))) }
	})
	exp.SetCloneObserver(func() func() {
		t0 := time.Now()
		return func() { cloneNS.Add(int64(time.Since(t0))) }
	})
	r := &roundResult{ReadyUnixNano: time.Now().UnixNano()}
	if mode == modeProbe {
		t0 := time.Now()
		refSink = refWork()
		r.RefNS = int64(time.Since(t0))
		return r, nil
	}
	traced := mode == modeTraced
	var coll *obs.Collector
	var prof bytes.Buffer
	if traced {
		coll = obs.NewCollector()
		hv.ObserveAll(coll, -1)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}

	rt0 := readRuntime()
	res0, shared0 := exp.MemCounters()
	ev0 := sim.EventsExecuted()
	t0 := time.Now()
	ts, err := w.run()
	r.RunnerNS = int64(time.Since(t0))
	if traced {
		pprof.StopCPUProfile()
	}
	rt1 := readRuntime()
	res1, shared1 := exp.MemCounters()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := diffTables(w.name, render(ts), want); err != nil {
		return nil, err
	}

	r.SetupNS, r.CloneNS = setupNS.Load(), cloneNS.Load()
	r.Events = sim.EventsExecuted() - ev0
	r.HeapAllocs, r.HeapBytes, r.GCCycles = rt1[0]-rt0[0], rt1[1]-rt0[1], rt1[2]-rt0[2]
	r.ResidentBytes, r.SharedBytes = res1-res0, shared1-shared0
	if traced {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		r.Layers = foldLayers(p)
		r.Counters = sumCounters(coll)
	}
	return r, nil
}

// sumCounters adds up registryCounters over every collected platform.
func sumCounters(coll *obs.Collector) map[string]float64 {
	out := make(map[string]float64, len(registryCounters))
	for _, name := range registryCounters {
		out[name] = 0
	}
	for _, p := range coll.Platforms() {
		if p.Metrics == nil {
			continue
		}
		for _, s := range p.Metrics.Snapshot() {
			if _, ok := out[s.Name]; ok {
				out[s.Name] += s.Value
			}
		}
	}
	return out
}
