package main

import (
	"flag"
	"fmt"
	"testing"

	"optimus/internal/ccip"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/hwmon"
	"optimus/internal/iommu"
	"optimus/internal/mem"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

// Layer microbenchmarks. Each calls one layer's exported functions on
// inputs drawn from the run's seed, so a change to one layer can be read
// here and end to end side by side.

// microBenchtime is each microbenchmark's measuring time: long enough for a
// steady ns/op, short enough that all of them fit in a traced run.
const microBenchtime = "200ms"

type microBench struct {
	name   string // reported as micro.<name>_ns, plus micro.<name>_allocs and _bytes when allocs is set
	allocs bool
	bench  func(seed uint64) func(*testing.B)
}

var microBenches = []microBench{
	{"sim_schedule", false, benchSimSchedule},
	{"sim_churn", false, benchSimChurn},
	{"packet_path", true, benchPacketPath(ppDrained)},
	{"packet_path_saturated", true, benchPacketPath(ppSaturated)},
	{"iotlb_hit", false, benchIOTLBHit},
	{"mem_line_read", false, benchMemLine(false)},
	{"mem_line_write", false, benchMemLine(true)},
	{"clone", true, benchClone},
}

// runMicro runs every microbenchmark and returns its metrics. Allocations
// and allocated bytes are reported per operation as fractions, so growth
// that is amortized over many requests still shows.
func runMicro(seed uint64) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, mb := range microBenches {
		r := testing.Benchmark(mb.bench(seed))
		if r.N == 0 {
			return nil, fmt.Errorf("micro.%s failed", mb.name)
		}
		out["micro."+mb.name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		if mb.allocs {
			out["micro."+mb.name+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
			out["micro."+mb.name+"_bytes"] = float64(r.MemBytes) / float64(r.N)
		}
	}
	return out, nil
}

// seededDelays draws n event delays of 1–1000 ns.
func seededDelays(seed uint64, n int) []sim.Time {
	rng := sim.NewRand(seed)
	d := make([]sim.Time, n)
	for i := range d {
		d[i] = sim.Time(1+rng.Intn(1000)) * sim.Nanosecond
	}
	return d
}

// benchSimSchedule: schedule and dispatch one event at a time (a single
// pending event; each handler schedules the next).
func benchSimSchedule(seed uint64) func(*testing.B) {
	delays := seededDelays(seed, 1024)
	return func(b *testing.B) {
		k := sim.NewKernel()
		left, i := b.N, 0
		var fire func()
		fire = func() {
			left--
			if left > 0 {
				i = (i + 1) % len(delays)
				k.After(delays[i], fire)
			}
		}
		b.ResetTimer()
		k.After(delays[0], fire)
		k.Run()
	}
}

// churnPending is the event-heap population of benchSimChurn.
const churnPending = 1024

// benchSimChurn: 1024 staggered pending events, each rescheduling itself,
// so every dispatch sifts a heap of realistic depth.
func benchSimChurn(seed uint64) func(*testing.B) {
	delays := seededDelays(seed, churnPending)
	return func(b *testing.B) {
		k := sim.NewKernel()
		scheduled := 0
		fns := make([]func(), churnPending)
		for i := range fns {
			fns[i] = func() {
				if scheduled < b.N {
					scheduled++
					k.After(delays[i], fns[i])
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < churnPending && scheduled < b.N; i++ {
			scheduled++
			k.After(delays[i], fns[i])
		}
		k.Run()
	}
}

// ppShape is a packet-path load: how many accelerators share the tree and
// how many requests each keeps outstanding.
type ppShape struct {
	accels, outstanding int
}

var (
	// ppDrained keeps 128 lines in flight, below the root's 512 credits:
	// the tree queues empty between requests.
	ppDrained = ppShape{accels: 4, outstanding: 8}
	// ppSaturated keeps 2048 lines in flight behind the 512 root credits,
	// so the root's child queues never drain until the batch ends.
	ppSaturated = ppShape{accels: 8, outstanding: 64}
)

const (
	ppLines  = 4         // cache lines per request
	ppWindow = 256 << 10 // per-accelerator slice; small enough that warm-up touches every frame
	ppWarmup = 8192      // requests before timing: grows pools and materializes frames
	ppAddrs  = 1024      // seeded request addresses per accelerator, cycled
)

// ppIssuer keeps one accelerator's requests in flight through the audited
// DMA path. It implements ccip.Completer and reuses one buffer, so issuing
// allocates nothing itself.
type ppIssuer struct {
	b     *testing.B
	k     *sim.Kernel
	port  ccip.Port
	read  bool
	addrs []uint64
	next  int
	left  int
	buf   []byte
}

func (is *ppIssuer) issue() {
	if is.left <= 0 {
		return
	}
	is.left--
	req := ccip.Request{Addr: is.addrs[is.next], Lines: ppLines, VC: ccip.VCAuto, Issued: is.k.Now(), Comp: is}
	is.next = (is.next + 1) % len(is.addrs)
	if is.read {
		req.Kind, req.Dst = ccip.RdLine, is.buf
	} else {
		req.Kind, req.Data = ccip.WrLine, is.buf
	}
	is.port.Issue(req)
}

// Complete implements ccip.Completer: issue the next request.
func (is *ppIssuer) Complete(r ccip.Response) {
	if r.Err != nil {
		is.b.Fatal(r.Err)
	}
	is.issue()
}

// benchPacketPath measures one request through auditor, multiplexer tree,
// shell translation and link, and the response path, per request. The rig
// is built from exported constructors only: a shell over identity-mapped IO
// pages and hwmon.New in front of it, one slicing window per accelerator;
// even slots read and odd slots write.
func benchPacketPath(shape ppShape) func(seed uint64) func(*testing.B) {
	return func(seed uint64) func(*testing.B) {
		return func(b *testing.B) {
			k := sim.NewKernel()
			shell := ccip.NewShell(k, mem.NewPhysMem(64<<30), ccip.DefaultConfig())
			tbl := shell.IOMMU.Table()
			for va := uint64(0); va < uint64(shape.accels)*ppWindow; va += tbl.PageSize() {
				if err := tbl.Map(mem.IOVA(va), mem.HPA(va), pagetable.PermRW); err != nil {
					b.Fatal(err)
				}
			}
			mon, err := hwmon.New(k, shell, hwmon.Config{NumAccels: shape.accels})
			if err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRand(seed)
			issuers := make([]*ppIssuer, shape.accels)
			for id := range issuers {
				if err := mon.SetWindow(id, 0, mem.IOVA(id*ppWindow), ppWindow); err != nil {
					b.Fatal(err)
				}
				addrs := make([]uint64, ppAddrs)
				for i := range addrs {
					addrs[i] = rng.Uint64n(ppWindow/ccip.LineSize-ppLines) * ccip.LineSize
				}
				issuers[id] = &ppIssuer{b: b, k: k, port: mon.AccelPort(id), read: id%2 == 0,
					addrs: addrs, buf: make([]byte, ppLines*ccip.LineSize)}
			}
			run := func(requests int) {
				per := requests / shape.accels
				if per < 1 {
					per = 1
				}
				for _, is := range issuers {
					is.left += per
					for j := 0; j < shape.outstanding; j++ {
						is.issue()
					}
				}
				k.Run()
			}
			run(ppWarmup)
			b.ResetTimer()
			run(b.N)
		}
	}
}

// benchIOTLBHit: IOMMU translations that hit the IOTLB (the speculative
// same-region path is off): 512 mapped 2 MB pages, one per TLB set.
func benchIOTLBHit(seed uint64) func(*testing.B) {
	return func(b *testing.B) {
		tbl := pagetable.New[mem.IOVA, mem.HPA](mem.PageSize2M, 3)
		for p := uint64(0); p < iommu.DefaultSets; p++ {
			if err := tbl.Map(mem.IOVA(p*mem.PageSize2M), mem.HPA(p*mem.PageSize2M), pagetable.PermRW); err != nil {
				b.Fatal(err)
			}
		}
		u := iommu.New(iommu.Config{}, tbl)
		rng := sim.NewRand(seed)
		addrs := make([]mem.IOVA, 4096)
		for i := range addrs {
			addrs[i] = mem.IOVA(rng.Uint64n(iommu.DefaultSets*mem.PageSize2M/ccip.LineSize) * ccip.LineSize)
			if _, _, _, err := u.Translate(addrs[i], pagetable.PermRead); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := range b.N {
			if _, _, _, err := u.Translate(addrs[i%len(addrs)], pagetable.PermRead); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchMemLine: one cache-line PhysMem read or write at a seeded address
// in a resident 16 MB working set.
func benchMemLine(write bool) func(seed uint64) func(*testing.B) {
	const ws = 16 << 20
	return func(seed uint64) func(*testing.B) {
		return func(b *testing.B) {
			pm := mem.NewPhysMem(ws)
			rng := sim.NewRand(seed)
			fill := make([]byte, 1<<20)
			rng.Fill(fill)
			for off := 0; off < ws; off += len(fill) {
				pm.Write(mem.HPA(off), fill)
			}
			addrs := make([]mem.HPA, 4096)
			for i := range addrs {
				addrs[i] = mem.HPA(rng.Uint64n(ws/ccip.LineSize) * ccip.LineSize)
			}
			line := make([]byte, ccip.LineSize)
			b.ResetTimer()
			for i := range b.N {
				if write {
					pm.Write(addrs[i%len(addrs)], line)
				} else {
					pm.Read(addrs[i%len(addrs)], line)
				}
			}
		}
	}
}

// benchClone: hv.Clone of a provisioned 8-slot platform, built the way the
// sweep templates are (one VM, process, vAccel and filled 2 MB DMA buffer
// per slot). The template is built once and only read by Clone.
func benchClone(seed uint64) func(*testing.B) {
	var tmpl *hv.Hypervisor
	return func(b *testing.B) {
		if tmpl == nil {
			h, err := cloneTemplate(seed)
			if err != nil {
				b.Fatal(err)
			}
			tmpl = h
		}
		b.ResetTimer()
		for range b.N {
			if _, err := tmpl.Clone(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func cloneTemplate(seed uint64) (*hv.Hypervisor, error) {
	const slots = 8
	accels := make([]string, slots)
	for i := range accels {
		accels[i] = "AES"
	}
	h, err := hv.New(hv.Config{Accels: accels})
	if err != nil {
		return nil, err
	}
	rng := sim.NewRand(seed)
	data := make([]byte, 2<<20)
	for slot := 0; slot < slots; slot++ {
		vm, err := h.NewVM(fmt.Sprintf("vm-slot%d", slot), 10<<30)
		if err != nil {
			return nil, err
		}
		proc := vm.NewProcess()
		va, err := h.NewVAccel(proc, slot)
		if err != nil {
			return nil, err
		}
		dev, err := guest.Open(proc, va)
		if err != nil {
			return nil, err
		}
		buf, err := dev.AllocDMA(uint64(len(data)))
		if err != nil {
			return nil, err
		}
		rng.Fill(data)
		if err := dev.Write(buf, 0, data); err != nil {
			return nil, err
		}
	}
	return h, nil
}
