package hwmon

import (
	"testing"

	"optimus/internal/ccip"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

const (
	ppAccels   = 4
	ppWindow   = uint64(8) << 20
	ppOuts     = 8 // outstanding requests per accelerator
	ppReqLines = 4
)

// ppIssuer drives one accelerator slot in BenchmarkPacketPath through the
// pooled completion path: it implements ccip.Completer and supplies a reused
// read destination, so issuing allocates nothing.
type ppIssuer struct {
	b    testing.TB
	k    *sim.Kernel
	port ccip.Port
	id   int
	span uint64 // addresses wrap within [0, span)
	addr uint64
	left int
	wbuf []byte
	rbuf []byte
}

func (is *ppIssuer) issue() {
	if is.left <= 0 {
		return
	}
	is.left--
	is.addr = (is.addr + 2*ppReqLines*ccip.LineSize) % (is.span - ppReqLines*ccip.LineSize)
	req := ccip.Request{
		Addr: is.addr, Lines: ppReqLines, VC: ccip.VCAuto,
		Issued: is.k.Now(), Comp: is,
	}
	if is.id%2 == 0 {
		req.Kind = ccip.RdLine
		req.Dst = is.rbuf
	} else {
		req.Kind = ccip.WrLine
		req.Data = is.wbuf
	}
	is.port.Issue(req)
}

// Complete implements ccip.Completer: re-issue until the quota is spent.
func (is *ppIssuer) Complete(r ccip.Response) {
	if r.Err != nil {
		is.b.Fatal(r.Err)
	}
	is.issue()
}

// ppRig is a packet-path load: issuers, one per slot with a ppWindow-sized
// slicing window whose addresses wrap within span, behind a monitor.
type ppRig struct {
	k       *sim.Kernel
	issuers []*ppIssuer
	outs    int // requests each issuer keeps outstanding
}

// newPPRig wires accels issuers behind a monitor (traced when tr is
// non-nil).
func newPPRig(tb testing.TB, accels, outs int, span uint64, tr *obs.Tracer) *ppRig {
	k, shell, mon := rig(tb, accels, uint64(accels)*ppWindow)
	if tr != nil {
		mon.SetTracer(tr)
		shell.SetTracer(tr)
	}
	p := &ppRig{k: k, issuers: make([]*ppIssuer, accels), outs: outs}
	for id := range p.issuers {
		if err := mon.SetWindow(id, 0, mem.IOVA(id)*mem.IOVA(ppWindow), ppWindow); err != nil {
			tb.Fatal(err)
		}
		p.issuers[id] = &ppIssuer{
			b: tb, k: k, port: mon.AccelPort(id), id: id, span: span,
			wbuf: make([]byte, ppReqLines*ccip.LineSize),
			rbuf: make([]byte, ppReqLines*ccip.LineSize),
		}
	}
	return p
}

// start spreads a quota of requests over the issuers and issues each one's
// outstanding window.
func (p *ppRig) start(requests int) {
	per := max(requests/len(p.issuers), 1)
	for _, is := range p.issuers {
		is.left += per
		for j := 0; j < p.outs; j++ {
			is.issue()
		}
	}
}

// run drives requests more requests and runs the kernel until they all
// complete.
func (p *ppRig) run(requests int) {
	p.start(requests)
	p.k.Run()
}

// BenchmarkPacketPath measures the full request lifecycle — auditor rewrite,
// multiplexer tree arbitration, shell translation and link service, and the
// downstream response path — in host ns, bytes, and allocations per request.
// Four accelerators behind a two-level binary tree keep every layer exercised
// (arbitration, credits, injection pacing). The issuers use the pooled
// completion path (ccip.Completer + Request.Dst), so allocs/op must be 0 in
// steady state: the warmup below absorbs freelist and queue growth.
func BenchmarkPacketPath(b *testing.B) {
	p := newPPRig(b, ppAccels, ppOuts, ppWindow, nil)
	p.run(4096) // warmup: grow pools, queues, and link state to steady state
	b.ReportAllocs()
	b.ResetTimer()
	p.run(b.N)
}

// BenchmarkPacketPathTraced is BenchmarkPacketPath with a live tracer on the
// monitor and shell: the delta against the untraced benchmark is the per-
// request cost of emitting DMA, IOTLB, and mux-stall records into the ring.
func BenchmarkPacketPathTraced(b *testing.B) {
	p := newPPRig(b, ppAccels, ppOuts, ppWindow, obs.NewTracer(1<<16))
	p.run(4096)
	b.ReportAllocs()
	b.ResetTimer()
	p.run(b.N)
}

// zeroAllocSpan is the per-accelerator address span of the zero-alloc gates:
// small enough that the warmup touches every frame, so the memory model's
// demand paging is done growing before anything is measured.
const zeroAllocSpan = uint64(256) << 10

// assertZeroAlloc runs warm once — it must cover the span on every
// accelerator and grow pools and queues to their peak occupancy — and then
// requires batch to allocate nothing. A non-nil tr must have wrapped during
// the warmup and recorded the measured batches.
func assertZeroAlloc(t *testing.T, warm, batch func(), tr *obs.Tracer) {
	t.Helper()
	warm()
	if tr != nil && tr.Dropped() == 0 {
		t.Fatal("warmup did not wrap the trace ring; shrink the ring or drive more requests")
	}
	if avg := testing.AllocsPerRun(4, batch); avg != 0 {
		t.Fatalf("steady-state packet path allocated: %.2f allocs per batch", avg)
	}
	if tr != nil && tr.Emitted() == 0 {
		t.Fatal("tracer attached but no records emitted")
	}
}

// TestPacketPathZeroAlloc is the enforced form of the benchmark's 0 allocs/op
// claim: after a warmup, driving requests through auditor, tree, shell, and
// the pooled completion path must not allocate.
func TestPacketPathZeroAlloc(t *testing.T) {
	p := newPPRig(t, ppAccels, ppOuts, zeroAllocSpan, nil)
	assertZeroAlloc(t, func() { p.run(8192) }, func() { p.run(1024) }, nil)
}

// TestPacketPathZeroAllocTraced repeats the zero-alloc gate with tracing
// enabled: once the ring is preallocated and warm (including wraparound),
// emitting trace records on the packet path must not allocate either.
func TestPacketPathZeroAllocTraced(t *testing.T) {
	tr := obs.NewTracer(1 << 12) // small ring: the warmup wraps it many times
	p := newPPRig(t, ppAccels, ppOuts, zeroAllocSpan, tr)
	assertZeroAlloc(t, func() { p.run(8192) }, func() { p.run(1024) }, tr)
}

// TestPacketPathZeroAllocSaturated is the zero-alloc gate under saturation:
// eight accelerators with 64 four-line requests outstanding each put 2048
// lines behind the root's 512 credits, and their quotas never run out, so
// the tree's child queues never drain — not between measured batches
// either, which are slices of one endless run. Queue storage must therefore
// be bounded by occupancy, not by the traffic that has passed through.
func TestPacketPathZeroAllocSaturated(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var tr *obs.Tracer
		if traced {
			tr = obs.NewTracer(1 << 12)
		}
		p := newPPRig(t, 8, 64, zeroAllocSpan, tr)
		p.start(1 << 40)
		step := func() { p.k.RunFor(200 * sim.Microsecond) } // ~10k requests
		assertZeroAlloc(t, step, step, tr)
	}
}
