package main

import "slices"

// metricDef declares one reported metric. BENCHMARK.json declares the same
// names, units, directions and bounds; the tests keep the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the baseline median a regression may take
}

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run as the median over its rounds. Each round is a fresh
// process, so set-up and peak memory are paid again every round.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},           // host seconds of one round, process start to exit
	{"cpu_s", "s", "lower", 0.25},            // user+sys of the round's process, including GC on the second core
	{"setup_s", "s", "lower", 0.25},          // median process start-up plus exp set-up regions (assembly, provisioning, clone)
	{"heap_allocs_m", "Mobj", "lower", 0.02}, // millions of heap objects allocated by the workload
	{"heap_alloc_gb", "GB", "lower", 0.02},   // GB allocated by the workload
	{"peak_rss_mb", "MiB", "lower", 0.25},    // the round's ru_maxrss
}

// perLayer are the metrics of single layers, reported by a traced run.
// *.cpu_pct are self-time shares of CPU-profile samples (foldStack);
// *.ns_per_* divide a layer's sampled CPU by a deterministic registry count;
// micro.* come from the layer microbenchmarks.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_sec", "1/s", "higher", 0},
	{"sim.cpu_pct", "%", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"hwmon.cpu_pct", "%", "lower", 0},
	{"hwmon.dma_requests", "count", "lower", 0},
	{"hwmon.ns_per_dma", "ns", "lower", 0},
	{"ccip.cpu_pct", "%", "lower", 0},
	{"ccip.ns_per_dma", "ns", "lower", 0},
	{"iommu.cpu_pct", "%", "lower", 0},
	{"iommu.hit_pct", "%", "higher", 0},
	{"iommu.ns_per_lookup", "ns", "lower", 0},
	{"mem.cpu_pct", "%", "lower", 0},
	{"mem.cow_breaks", "count", "lower", 0},
	{"accel.cpu_pct", "%", "lower", 0},
	{"algo.cpu_pct", "%", "lower", 0},
	{"hv.cpu_pct", "%", "lower", 0},
	{"hv.context_switches", "count", "lower", 0},
	{"exp.clone_pct", "%", "lower", 0},
	{"exp.shared_pct", "%", "higher", 0},
	{"runtime.alloc.cpu_pct", "%", "lower", 0},
	{"runtime.gc.cpu_pct", "%", "lower", 0},
	{"runtime.copy.cpu_pct", "%", "lower", 0},
	{"runtime.other.cpu_pct", "%", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"other.cpu_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"micro.sim_schedule_ns", "ns", "lower", 0},
	{"micro.sim_churn_ns", "ns", "lower", 0},
	{"micro.packet_path_ns", "ns", "lower", 0},
	{"micro.packet_path_allocs", "allocs/op", "lower", 0},
	{"micro.packet_path_bytes", "B/op", "lower", 0},
	{"micro.packet_path_saturated_ns", "ns", "lower", 0},
	{"micro.packet_path_saturated_allocs", "allocs/op", "lower", 0},
	{"micro.packet_path_saturated_bytes", "B/op", "lower", 0},
	{"micro.iotlb_hit_ns", "ns", "lower", 0},
	{"micro.mem_line_read_ns", "ns", "lower", 0},
	{"micro.mem_line_write_ns", "ns", "lower", 0},
	{"micro.clone_ns", "ns", "lower", 0},
	{"micro.clone_allocs", "allocs/op", "lower", 0},
	{"micro.clone_bytes", "B/op", "lower", 0},
}

// untracedMetrics turns the successful rounds of an untraced run into
// per-round values of every end-to-end metric. A round's set-up is the
// median process start-up (startupS) plus its own time in exp set-up
// regions; host timings are multiplied by scale (see refSeconds).
func untracedMetrics(rounds []round, startupS, scale float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rounds {
		out["wall_s"] = append(out["wall_s"], scale*r.wall.Seconds())
		out["cpu_s"] = append(out["cpu_s"], scale*r.cpu.Seconds())
		out["setup_s"] = append(out["setup_s"], scale*(startupS+float64(r.res.SetupNS)/1e9))
		out["heap_allocs_m"] = append(out["heap_allocs_m"], float64(r.res.HeapAllocs)/1e6)
		out["heap_alloc_gb"] = append(out["heap_alloc_gb"], float64(r.res.HeapBytes)/1e9)
		out["peak_rss_mb"] = append(out["peak_rss_mb"], float64(r.maxRSSKB)/1024)
	}
	return out
}

// layerMetrics derives the per-layer metrics from a traced round, the
// untraced round run beside it, and the microbenchmarks.
func layerMetrics(base, traced round, micro map[string]float64) map[string]float64 {
	m := map[string]float64{}
	t := traced.res
	var total int64
	for _, c := range t.Layers {
		total += c.Samples
	}
	for _, l := range slices.Concat(repoLayers, runtimeClasses, []string{"other"}) {
		m[l+".cpu_pct"] = ratio(100*float64(t.Layers[l].Samples), float64(total))
	}
	nsPer := func(layer string, n float64) float64 { return ratio(float64(t.Layers[layer].CPUNS), n) }
	c := t.Counters
	events := float64(t.Events)
	lookups := c["iommu.hits"] + c["iommu.spec_hits"] + c["iommu.misses"]

	m["sim.events"] = events
	m["sim.events_per_sec"] = ratio(float64(base.res.Events), float64(base.res.RunnerNS)/1e9)
	m["sim.ns_per_event"] = nsPer("sim", events)
	m["hwmon.dma_requests"] = c["hwmon.dma_requests"]
	m["hwmon.ns_per_dma"] = nsPer("hwmon", c["hwmon.dma_requests"])
	m["ccip.ns_per_dma"] = nsPer("ccip", c["shell.reads"]+c["shell.writes"])
	m["iommu.hit_pct"] = ratio(100*(c["iommu.hits"]+c["iommu.spec_hits"]), lookups)
	m["iommu.ns_per_lookup"] = nsPer("iommu", lookups)
	m["mem.cow_breaks"] = c["mem.cow_breaks"]
	m["hv.context_switches"] = c["hv.context_switches"]
	m["exp.clone_pct"] = ratio(100*float64(base.res.CloneNS), float64(base.res.SetupNS))
	m["exp.shared_pct"] = ratio(100*float64(base.res.SharedBytes), float64(base.res.ResidentBytes))
	m["runtime.gc_cycles"] = float64(base.res.GCCycles)
	m["trace.overhead_pct"] = 100 * (ratio(float64(t.RunnerNS), float64(base.res.RunnerNS)) - 1)
	for k, v := range micro {
		m[k] = v
	}
	return m
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
