package hwmon

import (
	"bytes"
	"errors"
	"testing"

	"optimus/internal/ccip"
	"optimus/internal/mem"
	"optimus/internal/sim"
)

// arenaProbe is a per-request ccip.Completer record used by the recycling
// property test: half of the requests complete through such records and half
// through ccip.CompleterFunc closures.
type arenaProbe struct {
	check func(ccip.Response)
}

func (p *arenaProbe) Complete(r ccip.Response) { p.check(r) }

// TestArenaRecycling is the pooled-record property test: many overlapping
// DMAs per accelerator with randomized kinds, sizes, addresses, channels, and
// issue times (so inflight/shellOp records recycle in a scrambled order),
// plus deliberate out-of-window requests. Every response must carry its own
// request's address, kind, error disposition, and — for reads — the exact
// bytes backing its own window, proving no recycled record leaks state
// between requests.
func TestArenaRecycling(t *testing.T) {
	const (
		accels  = 4
		window  = uint64(1) << 20
		perAcc  = 300
		maxLine = 8
	)
	k, shell, mon := rig(t, accels, uint64(accels)*window)
	rng := sim.NewRand(0x0a7e_a5ed)

	// Identity-flavoured backing pattern: byte at HPA p is a hash of p, so a
	// read response's payload pinpoints exactly which addresses it came from.
	pat := make([]byte, accels*int(window))
	for i := range pat {
		p := uint64(i)
		pat[i] = byte(p ^ p>>8 ^ p>>16 ^ 0x5a)
	}
	shell.Mem.Write(0, pat)

	for id := 0; id < accels; id++ {
		if err := mon.SetWindow(id, 0, mem.IOVA(id)*mem.IOVA(window), window); err != nil {
			t.Fatal(err)
		}
	}

	type pending struct {
		kind    ccip.Kind
		addr    uint64 // GVA as issued
		base    uint64 // window base: HPA = base + GVA (identity-mapped IOVA)
		lines   int
		wantErr bool
		dst     []byte // non-nil: zero-copy read destination
		done    bool
	}
	var (
		reqs      []*pending
		completed int
	)
	finish := func(p *pending, r ccip.Response) {
		if p.done {
			t.Fatalf("request %+v completed twice", *p)
		}
		p.done = true
		completed++
		if r.Kind != p.kind {
			t.Fatalf("kind = %v, want %v", r.Kind, p.kind)
		}
		if r.Addr != p.addr {
			t.Fatalf("resp addr = %#x, want %#x", r.Addr, p.addr)
		}
		if p.wantErr {
			if !errors.Is(r.Err, ErrRangeViolation) {
				t.Fatalf("out-of-window request: err = %v, want ErrRangeViolation", r.Err)
			}
			return
		}
		if r.Err != nil {
			t.Fatalf("in-window request %#x: %v", p.addr, r.Err)
		}
		if p.kind == ccip.RdLine {
			if p.dst != nil && &r.Data[0] != &p.dst[0] {
				t.Fatal("read with Dst returned a different buffer")
			}
			hpa := p.base + p.addr
			if !bytes.Equal(r.Data, pat[hpa:hpa+uint64(p.lines*ccip.LineSize)]) {
				t.Fatalf("read at %#x returned foreign bytes", p.addr)
			}
		}
	}
	issueOne := func(id int) {
		p := &pending{lines: 1 + rng.Intn(maxLine)}
		span := uint64(p.lines * ccip.LineSize)
		// Reads target the lower half-window (pattern-backed, never
		// written); writes scribble over the upper half. That keeps the
		// read-verification pattern stable under overlapping traffic.
		half := window / 2
		p.addr = rng.Uint64n(half-span) &^ (ccip.LineSize - 1)
		if rng.Intn(2) == 0 {
			p.kind = ccip.RdLine
		} else {
			p.kind = ccip.WrLine
			p.addr += half
		}
		if rng.Intn(10) == 0 { // out-of-window probe
			p.addr += window
			p.wantErr = true
		}
		req := ccip.Request{
			Kind: p.kind, Addr: p.addr, Lines: p.lines,
			VC:     ccip.Channel(rng.Intn(4)),
			Issued: k.Now(),
		}
		if p.kind == ccip.RdLine {
			if rng.Intn(2) == 0 {
				p.dst = make([]byte, span)
				req.Dst = p.dst
			}
		} else {
			req.Data = make([]byte, span)
			rng.Fill(req.Data)
		}
		p.base = uint64(id) * window
		check := p
		verify := func(r ccip.Response) { finish(check, r) }
		if rng.Intn(2) == 0 {
			req.Comp = &arenaProbe{check: verify}
		} else {
			req.Comp = ccip.CompleterFunc(verify)
		}
		reqs = append(reqs, p)
		mon.AccelPort(id).Issue(req)
	}
	// Scatter issue times so completions interleave across accelerators and
	// records recycle between bursts.
	total := 0
	for id := 0; id < accels; id++ {
		id := id
		at := sim.Time(0)
		for i := 0; i < perAcc; i++ {
			at += sim.Time(rng.Intn(2000)) * sim.Nanosecond
			k.At(at, func() { issueOne(id) })
			total++
		}
	}
	k.Run()

	if completed != total {
		t.Fatalf("completed %d of %d requests", completed, total)
	}
	for i, p := range reqs {
		if !p.done {
			t.Fatalf("request %d never completed", i)
		}
	}
}
