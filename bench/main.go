// Command bench is the repository benchmark. It runs one workload (a fixed
// sweep of internal/exp at quick scale) and measures it only from outside
// the simulator: host clock and getrusage of a child process per round,
// runtime/metrics deltas, sim.EventsExecuted, exp's set-up and clone
// observers and memory counters, a CPU profile folded into the
// repository's layers, and microbenchmarks of each layer's exported
// functions. Every round's tables must match bench/golden/<workload>.txt.
//
// Usage, from the root of the repository (see README.md):
//
//	sh bench/run.sh --workload membench-read --seed 1 --seconds 35 --trace 0
//	sh bench/run.sh --workload apps --seed 1 --seconds 35 --trace 1
//	sh bench/run.sh -write-golden
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roundTimeout bounds one child process; a round that overruns it counts
// as failed.
const roundTimeout = 120 * time.Second

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the microbenchmarks' inputs (the workloads run on the experiments' committed seeds)")
	seconds := fs.Int("seconds", 35, "measuring budget of an untraced run: rounds start while the next one is expected to fit")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced rounds; 1: per-layer metrics from a traced round and the microbenchmarks")
	golden := fs.Bool("write-golden", false, "regenerate bench/golden/<workload>.txt from the current code (every workload when -workload is empty) and exit")
	child := fs.String("child", "", "internal: run one round in this process and print its JSON result (probe, untraced, traced or micro)")
	fs.Parse(os.Args[1:])

	if *golden {
		for _, w := range workloads {
			if *name != "" && w.name != *name {
				continue
			}
			if err := writeGolden(goldenDir, w); err != nil {
				fatal(err)
			}
		}
		return
	}
	if *child == modeMicro {
		m, err := runMicro(*seed)
		if err != nil {
			fatal(err)
		}
		emit(m)
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	switch {
	case *child != "":
		r, err := runRound(w, *child)
		if err != nil {
			fatal(err)
		}
		emit(r)
	case *trace == 0:
		endToEndRun(w, time.Duration(*seconds)*time.Second)
	default:
		perLayerRun(w, *seed)
	}
}

// round is one child-process round as the parent saw it.
type round struct {
	start    time.Time
	wall     time.Duration
	cpu      time.Duration // user+sys of the child
	maxRSSKB int64
	res      roundResult
}

// startup is the time from spawning the child until it was ready to start
// the workload: exec, runtime and package initialization, golden load.
func (r round) startup() time.Duration {
	return time.Duration(r.res.ReadyUnixNano - r.start.UnixNano())
}

// spawnChild re-executes this program with args, one child at a time, and
// decodes the JSON object the child prints into out.
func spawnChild(out any, args ...string) (round, error) {
	self, err := os.Executable()
	if err != nil {
		return round{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r := round{start: time.Now()}
	err = cmd.Run()
	r.wall = time.Since(r.start)
	if ctx.Err() != nil {
		return r, fmt.Errorf("child %v timed out after %v", args, roundTimeout)
	}
	if err != nil {
		return r, fmt.Errorf("child %v: %w", args, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.maxRSSKB = ru.Maxrss
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), out); err != nil {
		return r, fmt.Errorf("child %v: decoding its result: %w", args, err)
	}
	return r, nil
}

func spawnRound(w workload, mode string) (round, error) {
	var res roundResult
	r, err := spawnChild(&res, "-child", mode, "-workload", w.name)
	r.res = res
	return r, err
}

// probesPerRound is how many probes run before the first round and after
// every round. Their start-up times give the process start-up part of
// setup_s (a millisecond or two, so it needs more samples than there are
// rounds), and their refWork times the host speed.
const probesPerRound = 4

// refSeconds is refWork's median duration on a 2-CPU x86-64 Linux container
// (Go 1.24) in a quiet period. Host timings are reported scaled by
// refSeconds over the run's median refWork time, that is in seconds at that
// speed: the speed of a shared host drifts by tens of percent over minutes,
// and the scaling cancels most of the drift while keeping every change to
// the simulator, which refWork does not call.
const refSeconds = 0.15

// endToEndRun measures untraced rounds, with probes before the first and
// after each one, while the next round is expected to fit in budget
// (always at least one), and reports each end-to-end metric as the median
// over the successful rounds. The first failure ends the run: the workloads
// are deterministic, so it would repeat.
func endToEndRun(w workload, budget time.Duration) {
	var startups, refs []float64
	probe := func() float64 {
		var these []float64
		for i := 0; i < probesPerRound; i++ {
			r, err := spawnRound(w, modeProbe)
			if err != nil {
				fatal(err)
			}
			startups = append(startups, r.startup().Seconds())
			these = append(these, time.Duration(r.res.RefNS).Seconds())
		}
		refs = append(refs, these...)
		return summarize(these).Median
	}
	start := time.Now()
	probe()
	var ok []round
	attempted, failed := 0, 0
	var last time.Duration
	for attempted == 0 || time.Since(start)+last <= budget {
		attempted++
		t0 := time.Now()
		r, err := spawnRound(w, modeUntraced)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s round %d failed: %v\n", w.name, attempted, err)
			break
		}
		after := probe()
		fmt.Fprintf(os.Stderr, "bench: %s round %d: %.3fs wall, %.3fs cpu, then refWork %.4fs\n",
			w.name, attempted, r.wall.Seconds(), r.cpu.Seconds(), after)
		last = time.Since(t0)
		ok = append(ok, r)
	}
	if len(ok) == 0 {
		os.Exit(1)
	}
	correct := failed == 0 && sameEvents(ok...)
	ref := summarize(refs).Median
	scale := refSeconds / ref
	values := untracedMetrics(ok, summarize(startups).Median, scale)
	fmt.Printf("%s: %d rounds, %d failed, %d events per round; host timings scaled by %.4f (refWork median %.4fs)\n",
		w.name, attempted, failed, ok[0].res.Events, scale, ref)
	metrics := map[string]metricValue{}
	for _, d := range endToEnd {
		s := summarize(values[d.Name])
		note := ""
		if s.unresolved(d.Bound) {
			note = "  unresolved"
		}
		fmt.Printf("  %-14s %12.6g %-5s q1 %-10.6g q3 %-10.6g n=%d bound %g%s\n",
			d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, d.Bound, note)
		metrics[d.Name] = metricValue{s.Median, d.Unit}
	}
	emit(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics})
}

// perLayerRun runs one untraced round (the baseline for the tracing
// overhead and the host rates), one traced round, and the microbenchmarks.
func perLayerRun(w workload, seed uint64) {
	base, err := spawnRound(w, modeUntraced)
	if err != nil {
		fatal(err)
	}
	traced, err := spawnRound(w, modeTraced)
	if err != nil {
		fatal(err)
	}
	var micro map[string]float64
	if _, err := spawnChild(&micro, "-child", modeMicro, "-seed", strconv.FormatUint(seed, 10)); err != nil {
		fatal(err)
	}
	m := layerMetrics(base, traced, micro)
	fmt.Printf("%s: traced round %.2fs (peak RSS %d MiB), untraced %.2fs, %d events\n",
		w.name, traced.wall.Seconds(), traced.maxRSSKB>>10, base.wall.Seconds(), traced.res.Events)
	metrics := map[string]metricValue{}
	for _, d := range perLayer {
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
		metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	emit(result{Correct: sameEvents(base, traced), Attempted: 2, Failed: 0, Metrics: metrics})
}

// sameEvents reports whether every round simulated the same number of
// events: the workloads are deterministic, so a difference is a bug.
func sameEvents(rs ...round) bool {
	for _, r := range rs {
		if r.res.Events != rs[0].res.Events {
			fmt.Fprintf(os.Stderr, "bench: rounds simulated %d and %d events\n", rs[0].res.Events, r.res.Events)
			return false
		}
	}
	return true
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints v as one line of JSON on standard output.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
