package accel

import (
	"bytes"
	"testing"

	"optimus/internal/ccip"
	"optimus/internal/sim"
)

// mbBench builds a testbench running a mixed 50/50 read/write MemBench job
// over [0, ws) with every DMA pinned to UPI: one link serves in issue order,
// so overlapping writes land in the same order however the run is timed or
// interrupted.
func mbBench(t *testing.T, ws, bursts uint64) (*TestBench, *MemBench) {
	t.Helper()
	mb := NewMemBench()
	tb, err := NewTestBench(mb, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tb.Accel.SetChannel(ccip.VCUPI)
	tb.SetArg(MBArgBase, 0)
	tb.SetArg(MBArgSize, ws)
	tb.SetArg(MBArgBursts, bursts)
	tb.SetArg(MBArgWritePct, 50)
	tb.SetArg(MBArgSeed, 9)
	return tb, mb
}

// TestMemBenchZeroAlloc: once pools, queues and the working set's frames are
// warm, a running MemBench job allocates nothing per completion — reads land
// in the scratch buffer and writes reuse pooled payload records.
func TestMemBenchZeroAlloc(t *testing.T) {
	tb, _ := mbBench(t, 256<<10, 0) // small working set, warmed fully; 0 bursts: run until stopped
	tb.Start()
	tb.K.RunFor(200 * sim.Microsecond)

	const runs = 4
	before := tb.Accel.WorkDone()
	avg := testing.AllocsPerRun(runs, func() { tb.K.RunFor(20 * sim.Microsecond) })
	// AllocsPerRun adds one warm-up call; every completion is one 4-line burst.
	completions := (tb.Accel.WorkDone() - before) / (4 * ccip.LineSize) / (runs + 1)
	if st := tb.Accel.Status(); st != StatusRunning {
		t.Fatalf("job left the running state: %s (%v)", StatusName(st), tb.Accel.LastErr())
	}
	if completions < 100 {
		t.Fatalf("only %d completions per measured run; the job is not saturating", completions)
	}
	if avg != 0 {
		t.Fatalf("steady-state MemBench allocated %.0f times per %d completions", avg, completions)
	}
}

// TestMemBenchPreemptRebinds: the preemption reset clears the logic, which
// drops its callback binding and pooled records; the resumed job must rebind
// and end with the same progress counter and memory contents as an
// uninterrupted run of the same job.
func TestMemBenchPreemptRebinds(t *testing.T) {
	const (
		ws       = 1 << 20
		bursts   = 4000
		stateGVA = 0x3000000 // outside the working set
	)
	ref, _ := mbBench(t, ws, bursts)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	wantWork := ref.Accel.WorkDone()
	if wantWork != bursts*4*ccip.LineSize {
		t.Fatalf("uninterrupted work = %d, want %d", wantWork, bursts*4*ccip.LineSize)
	}

	tb, mb := mbBench(t, ws, bursts)
	tb.Start()
	tb.K.RunFor(30 * sim.Microsecond)
	if mb.bound != tb.Accel || len(mb.wrFree) == 0 {
		t.Fatal("running MemBench is not bound to its accelerator with pooled writes")
	}
	if _, err := tb.Preempt(stateGVA); err != nil {
		t.Fatal(err)
	}
	if mb.bound != nil || mb.onRead != nil || mb.wrFree != nil {
		t.Fatal("reset left the MemBench binding in place")
	}
	if err := tb.Resume(stateGVA); err != nil {
		t.Fatal(err)
	}
	if mb.bound != tb.Accel {
		t.Fatal("resumed MemBench did not rebind to its accelerator")
	}
	if got := tb.Accel.WorkDone(); got != wantWork {
		t.Fatalf("work across preemption = %d, want %d", got, wantWork)
	}
	if !bytes.Equal(tb.ReadMem(0, ws), ref.ReadMem(0, ws)) {
		t.Fatal("memory contents differ from the uninterrupted run")
	}
}
