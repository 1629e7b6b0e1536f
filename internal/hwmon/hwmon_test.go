package hwmon

import (
	"errors"
	"testing"
	"testing/quick"

	"optimus/internal/ccip"
	"optimus/internal/fpga"
	"optimus/internal/mem"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

// rig assembles kernel + shell + monitor with the IO page table identity-
// mapped over `mapped` bytes.
func rig(t testing.TB, numAccels int, mapped uint64) (*sim.Kernel, *ccip.Shell, *Monitor) {
	t.Helper()
	k := sim.NewKernel()
	m := mem.NewPhysMem(64 << 30)
	shell := ccip.NewShell(k, m, ccip.DefaultConfig())
	ps := shell.IOMMU.Table().PageSize()
	for va := uint64(0); va < mapped; va += ps {
		if err := shell.IOMMU.Table().Map(mem.IOVA(va), mem.HPA(va), pagetable.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	mon, err := New(k, shell, Config{NumAccels: numAccels})
	if err != nil {
		t.Fatal(err)
	}
	return k, shell, mon
}

func TestVCURegisters(t *testing.T) {
	_, _, mon := rig(t, 8, 0)
	magic, err := mon.MMIORead(VCUBase + VCURegMagic)
	if err != nil || magic != MagicValue {
		t.Fatalf("magic = %#x err=%v", magic, err)
	}
	n, _ := mon.MMIORead(VCUBase + VCURegNumAccels)
	if n != 8 {
		t.Fatalf("numAccels = %d", n)
	}
	info, _ := mon.MMIORead(VCUBase + VCURegTreeInfo)
	if info&0xff != 3 {
		t.Fatalf("tree levels = %d, want 3", info&0xff)
	}
	if (info>>8)&0xff != 2 {
		t.Fatalf("arity = %d, want 2", (info>>8)&0xff)
	}
	// RO registers reject writes.
	if err := mon.MMIOWrite(VCUBase+VCURegMagic, 1); err == nil {
		t.Fatal("write to RO register accepted")
	}
}

func TestVCUWindowProgramming(t *testing.T) {
	_, _, mon := rig(t, 2, 0)
	if err := mon.SetWindow(1, 0x1000_0000, 0x10_0000_0000, 64<<30); err != nil {
		t.Fatal(err)
	}
	g, i, s := mon.Auditor(1).Window()
	if g != 0x1000_0000 || i != 0x10_0000_0000 || s != 64<<30 {
		t.Fatalf("window = %#x %#x %#x", g, i, s)
	}
	// Readback through MMIO.
	base := uint64(VCUBase + VCUAccelBlockBase + VCUAccelBlockSize)
	v, _ := mon.MMIORead(base + VCUOffIOVABase)
	if v != 0x10_0000_0000 {
		t.Fatalf("IOVA readback = %#x", v)
	}
}

type fakeRegs struct {
	regs  map[uint64]uint64
	reads int
}

func (f *fakeRegs) MMIORead(off uint64) uint64 { f.reads++; return f.regs[off] }
func (f *fakeRegs) MMIOWrite(off uint64, val uint64) {
	if f.regs == nil {
		f.regs = map[uint64]uint64{}
	}
	f.regs[off] = val
}

func TestMMIORouting(t *testing.T) {
	_, _, mon := rig(t, 4, 0)
	h := &fakeRegs{}
	if err := mon.RegisterAccel(2, h, nil); err != nil {
		t.Fatal(err)
	}
	addr := AccelMMIO(2) + 0x40
	if err := mon.MMIOWrite(addr, 0xbeef); err != nil {
		t.Fatal(err)
	}
	v, err := mon.MMIORead(addr)
	if err != nil || v != 0xbeef {
		t.Fatalf("readback = %#x err=%v", v, err)
	}
	// Unregistered accelerator: discarded.
	if _, err := mon.MMIORead(AccelMMIO(3)); !errors.Is(err, ErrMMIODiscarded) {
		t.Fatalf("err = %v, want ErrMMIODiscarded", err)
	}
	// Beyond last accelerator: discarded.
	if _, err := mon.MMIORead(AccelMMIO(9)); !errors.Is(err, ErrMMIODiscarded) {
		t.Fatalf("err = %v", err)
	}
	// Shell-reserved region rejected.
	if _, err := mon.MMIORead(0x100); err == nil {
		t.Fatal("shell region read accepted")
	}
	if mon.Stats().MMIODiscarded < 2 {
		t.Fatal("discards not counted")
	}
}

func issueRead(k *sim.Kernel, port ccip.Port, addr uint64, lines int, done func(ccip.Response)) {
	port.Issue(ccip.Request{Kind: ccip.RdLine, Addr: addr, Lines: lines, VC: ccip.VCUPI,
		Issued: k.Now(), Comp: ccip.CompleterFunc(done)})
}

func TestSlicingTranslation(t *testing.T) {
	k, shell, mon := rig(t, 2, 0)
	// Accel 0: GVA window [0, 4M) → IOVA [64G, 64G+4M).
	const slice = mem.IOVA(64) << 30
	mon.SetWindow(0, 0, slice, 4<<20)
	ps := shell.IOMMU.Table().PageSize()
	for va := uint64(0); va < 4<<20; va += ps {
		shell.IOMMU.Table().Map(slice+mem.IOVA(va), mem.HPA(0x1000_0000+va), pagetable.PermRW)
	}
	// Write a marker at HPA 0x1000_0040, read GVA 0x40 through the auditor.
	shell.Mem.Write(0x1000_0040, []byte("sliced!"))
	var got []byte
	issueRead(k, mon.AccelPort(0), 0x40, 1, func(r ccip.Response) {
		if r.Err != nil {
			t.Errorf("read failed: %v", r.Err)
		}
		got = r.Data
	})
	k.Run()
	if string(got[:7]) != "sliced!" {
		t.Fatalf("read through slice = %q", got[:7])
	}
}

func TestRangeViolationDiscarded(t *testing.T) {
	k, shell, mon := rig(t, 2, 8<<20)
	mon.SetWindow(0, 0, 0, 1<<20) // 1 MB window
	before := shell.Stats().Reads
	var gotErr error
	issueRead(k, mon.AccelPort(0), 2<<20, 1, func(r ccip.Response) { gotErr = r.Err })
	k.Run()
	if !errors.Is(gotErr, ErrRangeViolation) {
		t.Fatalf("err = %v, want range violation", gotErr)
	}
	if shell.Stats().Reads != before {
		t.Fatal("violating DMA reached the shell")
	}
	if mon.Stats().RangeViolations != 1 {
		t.Fatal("violation not counted")
	}
}

// Property: windows of distinct accelerators with distinct IOVA slices can
// never produce the same IOVA for in-window GVAs (isolation invariant).
func TestSliceIsolationProperty(t *testing.T) {
	_, _, mon := rig(t, 2, 0)
	const sliceSize = mem.IOVA(1) << 30
	mon.SetWindow(0, 0x10000000, 0*sliceSize, uint64(sliceSize))
	mon.SetWindow(1, 0x10000000, 1*sliceSize, uint64(sliceSize))
	f := func(off0, off1 uint32) bool {
		a0, ok0 := mon.Auditor(0).Translate(0x10000000+mem.GVA(off0), 64)
		a1, ok1 := mon.Auditor(1).Translate(0x10000000+mem.GVA(off1), 64)
		if !ok0 || !ok1 {
			return true // out of window is fine; it gets discarded
		}
		return a0 != a1 && a0 < sliceSize && a1 >= sliceSize && a1 < 2*sliceSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagSpoofedResponseDropped(t *testing.T) {
	k, _, mon := rig(t, 2, 4<<20)
	forwarded := false
	// A response tagged for accel 1 arrives at accel 0's auditor.
	mon.Auditor(0).InjectForeignResponse(
		ccip.Response{Tag: ccip.Tag{AccelID: 1, Txn: 9}},
		func(ccip.Response) { forwarded = true })
	k.Run()
	if forwarded {
		t.Fatal("foreign response forwarded to accelerator")
	}
	if mon.Auditor(0).ResponsesDropped() != 1 {
		t.Fatal("drop not counted")
	}
}

func TestResetFencesInFlightResponses(t *testing.T) {
	k, _, mon := rig(t, 2, 8<<20)
	mon.SetWindow(0, 0, 0, 8<<20)
	delivered := 0
	resetDone := false
	mon.RegisterAccel(0, &fakeRegs{}, func() { resetDone = true })
	issueRead(k, mon.AccelPort(0), 0, 1, func(r ccip.Response) { delivered++ })
	// Reset while the read is in flight (reset happens at t=0, before the
	// multi-hundred-ns response).
	if err := mon.Reset(0); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if delivered != 0 {
		t.Fatal("response from before reset was delivered")
	}
	if !resetDone {
		t.Fatal("accelerator reset hook not invoked")
	}
	if mon.Stats().Resets != 1 {
		t.Fatal("reset not counted")
	}
	// New requests after reset work.
	issueRead(k, mon.AccelPort(0), 0, 1, func(r ccip.Response) { delivered++ })
	k.Run()
	if delivered != 1 {
		t.Fatal("post-reset request did not complete")
	}
}

func TestTreeAddsLatency(t *testing.T) {
	// Same single outstanding read with 8-accel monitor (3 levels) vs
	// pass-through directly at the shell: the tree must add ≈ 3×33 ns.
	k, shell, mon := rig(t, 8, 4<<20)
	mon.SetWindow(0, 0, 0, 4<<20)
	warm := func(port ccip.Port) {
		issueRead(k, port, 0, 1, func(ccip.Response) {})
		k.Run()
	}
	measure := func(port ccip.Port) sim.Time {
		var lat sim.Time
		issueRead(k, port, 0, 1, func(r ccip.Response) { lat = r.Latency })
		k.Run()
		return lat
	}
	warm(mon.AccelPort(0))
	treeLat := measure(mon.AccelPort(0))
	warm(shell)
	direct := measure(shell)
	added := treeLat - direct
	if added < 90*sim.Nanosecond || added > 130*sim.Nanosecond {
		t.Fatalf("tree added %v, want ≈100ns (tree %v, direct %v)", added, treeLat, direct)
	}
}

func TestInjectionPacingHalvesPeakRate(t *testing.T) {
	// One accel hammering 1-line reads: with InjectionCycles=2 the issue
	// rate caps at 200M lines/s = 12.8 GB/s; measure over 100us and
	// compare against InjectionCycles=1.
	run := func(injCycles int) float64 {
		k := sim.NewKernel()
		m := mem.NewPhysMem(1 << 30)
		shell := ccip.NewShell(k, m, func() ccip.Config {
			c := ccip.DefaultConfig()
			// Make channels effectively infinite so injection is the limit.
			c.UPI.ReadGBps = 1000
			c.UPI.ReadLatency = 50 * sim.Nanosecond
			return c
		}())
		ps := shell.IOMMU.Table().PageSize()
		for va := uint64(0); va < 8<<20; va += ps {
			shell.IOMMU.Table().Map(mem.IOVA(va), mem.HPA(va), pagetable.PermRW)
		}
		mon, _ := New(k, shell, Config{NumAccels: 1, InjectionCycles: injCycles})
		mon.SetWindow(0, 0, 0, 8<<20)
		stop := sim.Time(100 * sim.Microsecond)
		var issue func(addr uint64)
		issue = func(addr uint64) {
			if k.Now() > stop {
				return
			}
			issueRead(k, mon.AccelPort(0), addr%(8<<20-64), 1, func(r ccip.Response) {
				issue(addr + 64)
			})
		}
		for i := 0; i < 64; i++ {
			issue(uint64(i) * 64)
		}
		k.Run()
		return sim.Throughput(mon.Auditor(0).BytesRead(), stop)
	}
	fast := run(1)
	slow := run(2)
	ratio := slow / fast
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("injection pacing ratio = %.3f (%.2f vs %.2f GB/s), want ≈0.5", ratio, slow, fast)
	}
}

func TestRoundRobinFairnessTwoHungryAccels(t *testing.T) {
	// Two accelerators saturating the tree must each get ~half the bytes.
	k, _, mon := rig(t, 2, 32<<20)
	mon.SetWindow(0, 0, 0, 16<<20)
	mon.SetWindow(1, 0, 16<<20, 16<<20)
	stop := sim.Time(500 * sim.Microsecond)
	for id := 0; id < 2; id++ {
		id := id
		var issue func(addr uint64)
		issue = func(addr uint64) {
			if k.Now() > stop {
				return
			}
			issueRead(k, mon.AccelPort(id), addr%(16<<20-8*64), 8, func(r ccip.Response) {
				if r.Err != nil {
					t.Errorf("accel %d read: %v", id, r.Err)
				}
				issue(addr + 8*64)
			})
		}
		for i := 0; i < 32; i++ {
			issue(uint64(i) * 512)
		}
	}
	k.Run()
	b0 := float64(mon.Auditor(0).BytesRead())
	b1 := float64(mon.Auditor(1).BytesRead())
	ratio := b0 / b1
	if ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("bandwidth split %.3f (%.0f vs %.0f bytes), want ≈1.0", ratio, b0, b1)
	}
}

func TestEightAccelFairness(t *testing.T) {
	// Table 3's property: eight homogeneous accelerators see a normalized
	// throughput range of ~1%.
	k, _, mon := rig(t, 8, 256<<20)
	const window = uint64(16) << 20
	stop := sim.Time(300 * sim.Microsecond)
	for id := 0; id < 8; id++ {
		id := id
		mon.SetWindow(id, 0, mem.IOVA(id)*mem.IOVA(window), window)
		var issue func(addr uint64)
		issue = func(addr uint64) {
			if k.Now() > stop {
				return
			}
			issueRead(k, mon.AccelPort(id), addr%(window-8*64), 8, func(r ccip.Response) { issue(addr + 512) })
		}
		for i := 0; i < 16; i++ {
			issue(uint64(i) * 512)
		}
	}
	k.Run()
	var min, max, sum float64
	min = 1e18
	for id := 0; id < 8; id++ {
		b := float64(mon.Auditor(id).BytesRead())
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
		sum += b
	}
	spread := (max - min) / (sum / 8)
	if spread > 0.02 {
		t.Fatalf("normalized throughput range = %.4f, want ≤ 0.02", spread)
	}
}

func TestFlatTopologySingleLevel(t *testing.T) {
	k := sim.NewKernel()
	m := mem.NewPhysMem(1 << 30)
	shell := ccip.NewShell(k, m, ccip.DefaultConfig())
	mon, err := New(k, shell, Config{NumAccels: 8, Topology: fpga.MuxTopology{Flat: true}})
	if err != nil {
		t.Fatal(err)
	}
	if mon.TreeLevels() != 1 {
		t.Fatalf("flat levels = %d", mon.TreeLevels())
	}
}

func TestRegisterAccelBounds(t *testing.T) {
	_, _, mon := rig(t, 2, 0)
	if err := mon.RegisterAccel(5, &fakeRegs{}, nil); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

// The paper's bandwidth-shaping knob (§4.1): "if cloud providers seek to
// provide greater bandwidth to some accelerator A, the multiplexer tree can
// be configured to place fewer accelerators under the multiplexers on A's
// path." With four slots on a binary tree, accel 0 saturating alone in the
// left subtree gets ~half the root bandwidth while accels 2 and 3 split the
// other half.
func TestSubtreeBandwidthShaping(t *testing.T) {
	const window = uint64(16) << 20
	k, _, mon := rig(t, 4, 4*window)
	stop := sim.Time(400 * sim.Microsecond)
	hammer := func(id int) {
		mon.SetWindow(id, 0, mem.IOVA(id)*mem.IOVA(window), window)
		var issue func(addr uint64)
		issue = func(addr uint64) {
			if k.Now() > stop {
				return
			}
			issueRead(k, mon.AccelPort(id), addr%(window-8*64), 8, func(r ccip.Response) { issue(addr + 512) })
		}
		// Deep enough to saturate half the root credits single-handedly.
		for i := 0; i < 48; i++ {
			issue(uint64(i) * 512)
		}
	}
	hammer(0) // alone in the left subtree (slot 1 idle)
	hammer(2)
	hammer(3)
	k.Run()
	b0 := float64(mon.Auditor(0).BytesRead())
	b2 := float64(mon.Auditor(2).BytesRead())
	b3 := float64(mon.Auditor(3).BytesRead())
	if r := b0 / (b2 + b3); r < 0.9 || r > 1.1 {
		t.Fatalf("accel 0 should get ~the whole left half: %.0f vs %.0f+%.0f (ratio %.2f)", b0, b2, b3, r)
	}
	if r := b2 / b3; r < 0.95 || r > 1.05 {
		t.Fatalf("right-subtree siblings should split evenly: %.2f", r)
	}
}

// BenchmarkTreeThroughput measures simulator performance for the full
// 8-accelerator DMA path (events per simulated request).
func BenchmarkTreeThroughput(b *testing.B) {
	k, _, mon := rig(b, 8, 64<<20)
	for id := 0; id < 8; id++ {
		mon.SetWindow(id, 0, mem.IOVA(id)*(8<<20), 8<<20)
	}
	n := 0
	var issue func(id int, addr uint64)
	issue = func(id int, addr uint64) {
		if n >= b.N {
			return
		}
		n++
		issueRead(k, mon.AccelPort(id), addr%(8<<20-512), 8, func(r ccip.Response) {
			issue(id, addr+512)
		})
	}
	b.ResetTimer()
	for id := 0; id < 8; id++ {
		issue(id, uint64(id)*4096)
	}
	k.Run()
}
