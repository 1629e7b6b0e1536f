package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// spinForProfile burns CPU in a function the decoder test looks for.
//
//go:noinline
func spinForProfile(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var spinSink uint64

func TestParseProfileFindsBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler in use: %v", err)
	}
	spinSink = spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, busy int64
	for _, s := range p.samples {
		total += s.values[0]
		for _, fn := range p.stack(s) {
			if strings.HasSuffix(fn, ".spinForProfile") {
				busy += s.values[0]
				break
			}
		}
	}
	if total < 10 {
		t.Fatalf("profile holds %d samples, want at least 10", total)
	}
	if float64(busy) < 0.8*float64(total) {
		t.Fatalf("spinForProfile has %d of %d samples, want >= 80%%", busy, total)
	}
	// The busy function is no repository layer, so its samples fold into
	// "other".
	if got := foldLayers(p)["other"].Samples; float64(got) < 0.8*float64(total) {
		t.Fatalf("fold charged %d of %d samples to other, want >= 80%%", got, total)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	// A sample field (2, length-delimited) claiming 5 bytes but holding 1.
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestAppendVarintsPackedAndUnpacked(t *testing.T) {
	got, err := appendVarints(nil, wireField{typ: 0, v: 7})
	if err != nil || !reflect.DeepEqual(got, []uint64{7}) {
		t.Fatalf("unpacked: %v, %v", got, err)
	}
	got, err = appendVarints(got, wireField{typ: 2, b: []byte{0x01, 0xac, 0x02}})
	if err != nil || !reflect.DeepEqual(got, []uint64{7, 1, 300}) {
		t.Fatalf("packed: %v, %v", got, err)
	}
}

func TestFoldStack(t *testing.T) {
	const (
		accept = "optimus/internal/hwmon.(*muxNode).accept"
		read   = "optimus/internal/mem.(*PhysMem).Read"
	)
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{nil, "other"},
		{[]string{"optimus/internal/sim.(*Kernel).heapPop", "optimus/internal/sim.(*Kernel).Run"}, "sim"},
		{[]string{"optimus/internal/algo/aes.encryptBlock", "optimus/internal/accel.(*Accel).compute"}, "algo"},
		{[]string{"optimus/internal/hwmon.New.func1", "optimus/internal/sim.(*Kernel).Run"}, "hwmon"},
		// Standard-library leaves are charged to the repository frame above.
		{[]string{"math/bits.Len64", accept}, "hwmon"},
		{[]string{"sync.(*Mutex).Lock", "optimus/internal/ccip.(*Shell).Issue"}, "ccip"},
		// Repository packages that are not layers of their own.
		{[]string{"optimus/internal/pagetable.(*Table[go.shape.uint64,go.shape.uint64]).Lookup",
			"optimus/internal/iommu.(*IOMMU).Translate"}, "other"},
		{[]string{"optimus/internal/exp.Fig7", "main.main"}, "other"},
		{[]string{"main.main", "runtime.main"}, "other"},
		// Runtime leaves are classified by the runtime frames above them.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.systemstack",
			"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.growslice", accept}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", accept}, "runtime.alloc"},
		{[]string{"runtime.memmove", "runtime.growslice", accept}, "runtime.alloc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", accept}, "runtime.alloc"},
		{[]string{"runtime.duffcopy", accept}, "runtime.copy"},
		{[]string{"runtime.memmove", "runtime.typedmemmove", accept}, "runtime.copy"},
		{[]string{"runtime.memmove", read}, "runtime.copy"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64", read}, "runtime.other"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable"}, "runtime.other"},
		{[]string{"runtime._System"}, "runtime.other"},
		// Only the runtime frames between the leaf and the caller count.
		{[]string{"runtime.memmove", read, "optimus/internal/exp.fig7Point", "runtime.mallocgc"}, "runtime.copy"},
	}
	for _, c := range cases {
		if got := foldStack(c.stack); got != c.want {
			t.Errorf("foldStack(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchSpec is BENCHMARK.json; unknown keys are an error.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nbench:\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\nbench:\n%+v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, bench %v", names, workloadNames())
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", spec.RunSeconds)
	}

	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("workload name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	var setup metricDef
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Name == "setup_s" {
			setup = d
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("metric %s: bound %g must be in (0, 0.25] and at most setup_s's", d.Name, d.Bound)
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be declared in s, lower is better: %+v", setup)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(names) < 2 || len(names) > 8 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the limits",
			len(names), len(endToEnd), len(perLayer))
	}
}

// TestReportsEveryDeclaredMetric checks that the metrics the benchmark
// computes are exactly the declared ones, so no declared metric goes
// missing from a run's output.
func TestReportsEveryDeclaredMetric(t *testing.T) {
	r := round{wall: time.Second, cpu: time.Second, maxRSSKB: 1024, res: roundResult{
		RunnerNS: 1e9, SetupNS: 1e6, CloneNS: 5e5, Events: 100, HeapAllocs: 1, HeapBytes: 1,
		ResidentBytes: 2, SharedBytes: 1,
		Layers:   map[string]layerCost{"sim": {Samples: 1, CPUNS: 1}},
		Counters: map[string]float64{},
	}}
	micro := map[string]float64{}
	for _, mb := range microBenches {
		micro["micro."+mb.name+"_ns"] = 1
		if mb.allocs {
			micro["micro."+mb.name+"_allocs"] = 1
			micro["micro."+mb.name+"_bytes"] = 1
		}
	}
	check := func(kind string, got []string, defs []metricDef) {
		var want []string
		for _, d := range defs {
			want = append(want, d.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: computed %v\ndeclared %v", kind, got, want)
		}
	}
	var e2e, layers []string
	for k := range untracedMetrics([]round{r}, 0.001, 1) {
		e2e = append(e2e, k)
	}
	for k := range layerMetrics(r, r, micro) {
		layers = append(layers, k)
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs   []float64
		want summary
	}{
		{[]float64{7}, summary{Median: 7, Q1: 7, Q3: 7, N: 1}},
		{[]float64{1, 2}, summary{Median: 1.5, Q1: 0.75, Q3: 2.25, N: 2}},
		{[]float64{1.2, 1.0, 1.1}, summary{Median: 1.1, Q1: 1.0, Q3: 1.2, N: 3}},
		{[]float64{16, 2, 8, 4}, summary{Median: 6, Q1: 2.5, Q3: 14, N: 4}},
		{[]float64{3, 1, 2, 5, 4}, summary{Median: 3, Q1: 1.5, Q3: 4.5, N: 5}},
		{[]float64{100, 81, 64, 49, 36, 25, 16, 9, 4, 1}, summary{Median: 30.5, Q1: 7.75, Q3: 68.25, N: 10}},
	}
	for _, c := range cases {
		got := summarize(c.xs)
		if got.N != c.want.N || !near(got.Median, c.want.Median) || !near(got.Q1, c.want.Q1) || !near(got.Q3, c.want.Q3) {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestUnresolved(t *testing.T) {
	s := summarize([]float64{1.0, 1.1, 1.2}) // spread 0.2/1.1
	if !near(s.spread(), 0.2/1.1) {
		t.Fatalf("spread = %g", s.spread())
	}
	if !s.unresolved(0.1) {
		t.Error("spread 18% against a 10% bound must be unresolved")
	}
	if s.unresolved(0.25) {
		t.Error("spread 18% against a 25% bound must be resolved")
	}
	if summarize([]float64{5}).unresolved(0.01) {
		t.Error("a single round has no spread to judge")
	}
}

func TestGoldenMismatchIsReported(t *testing.T) {
	good, err := os.ReadFile(goldenPath("golden", "sched"))
	if err != nil {
		t.Fatal(err)
	}
	if err := diffTables("sched", good, good); err != nil {
		t.Fatalf("identical tables reported as different: %v", err)
	}
	dir := t.TempDir()
	tampered := bytes.Replace(good, []byte("0.254"), []byte("0.255"), 1)
	if bytes.Equal(tampered, good) {
		t.Fatal("golden file lacks the value the test tampers with")
	}
	if err := os.WriteFile(goldenPath(dir, "sched"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath(dir, "sched"))
	if err != nil {
		t.Fatal(err)
	}
	err = diffTables("sched", good, want)
	if err == nil || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "0.255") {
		t.Fatalf("tampered golden: got %v, want a mismatch at line 4 quoting 0.255", err)
	}
	if err := diffTables("sched", good[:len(good)/2], good); err == nil || !strings.Contains(err.Error(), "sched") {
		t.Fatalf("truncated tables: got %v", err)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
