package accel

import (
	"fmt"

	"optimus/internal/ccip"
	"optimus/internal/sim"
)

// MemBench application registers.
const (
	MBArgBase     = 0 // working set base GVA
	MBArgSize     = 1 // working set size in bytes
	MBArgBursts   = 2 // bursts to issue (0 = run until preempted)
	MBArgWritePct = 3 // percentage of bursts that are writes
	MBArgBurst    = 4 // burst length in lines (default 8)
	MBArgSeed     = 5 // RNG seed
)

// MemBench concurrently issues random DMA reads and writes to saturate the
// platform's bandwidth (§6.1). Random addresses defeat memory locality and
// produce worst-case IOTLB behaviour. Synthesized at 400 MHz; conforms to
// the preemption interface.
//
// Issuing allocates nothing in steady state. The completion callbacks are
// built once per binding to an *Accel; the binding is made lazily in Pump,
// so a ResetLogic (which clears it) or a fresh instance rebinds. Reads land
// in one scratch buffer (MemBench never inspects read data), and write
// payloads come from a freelist of records.
type MemBench struct {
	rng       *sim.Rand
	remaining uint64
	infinite  bool

	base, size uint64
	burst      int
	writePct   uint64

	bound   *Accel
	onRead  func(data []byte, err error)
	scratch []byte
	wrFree  []*mbWrite
}

// mbWrite is one pooled write: its payload buffer and a completion callback,
// built once, that returns the record to the freelist. The buffer is only
// ever written in its 8-byte header, so the rest stays zero across reuses.
type mbWrite struct {
	buf  []byte
	done func(err error)
}

// NewMemBench returns the MB logic.
func NewMemBench() *MemBench { return &MemBench{} }

// Name implements Logic.
func (m *MemBench) Name() string { return "MB" }

// FreqMHz implements Logic: MB closes timing at the full 400 MHz.
func (m *MemBench) FreqMHz() int { return 400 }

// StateBytes implements Logic: RNG state + progress + config.
func (m *MemBench) StateBytes() int { return 8*4 + 8 + 8 + 8 + 8 + 8 + 8 }

// Start implements Logic.
func (m *MemBench) Start(a *Accel) {
	m.base = a.Arg(MBArgBase)
	m.size = a.Arg(MBArgSize)
	m.burst = int(a.Arg(MBArgBurst))
	if m.burst <= 0 {
		m.burst = 4 // CCI-P's maximum multi-line request (cl_len = 4)
	}
	m.writePct = a.Arg(MBArgWritePct)
	m.remaining = a.Arg(MBArgBursts)
	m.infinite = m.remaining == 0
	m.rng = sim.NewRand(a.Arg(MBArgSeed) ^ 0x3b)
	if m.size < uint64(m.burst)*ccip.LineSize {
		a.Fail(fmt.Errorf("membench: working set %d smaller than one burst", m.size))
		return
	}
	a.SetWindow(64) // enough in-flight lines to cover the bandwidth-delay product
}

// bind builds the completion callbacks for a and drops any records bound
// to a previous accelerator.
func (m *MemBench) bind(a *Accel) {
	m.bound = a
	m.wrFree = nil
	m.onRead = func(data []byte, err error) {
		if err != nil {
			a.Fail(fmt.Errorf("membench read: %w", err))
			return
		}
		a.AddWork(uint64(len(data)))
	}
}

// getWrite pops a write record whose payload is n bytes long, or builds one.
func (m *MemBench) getWrite(n int) *mbWrite {
	var w *mbWrite
	if k := len(m.wrFree); k > 0 {
		w = m.wrFree[k-1]
		m.wrFree = m.wrFree[:k-1]
	} else {
		w = &mbWrite{}
		a := m.bound
		w.done = func(err error) {
			n := uint64(len(w.buf))
			m.wrFree = append(m.wrFree, w)
			if err != nil {
				a.Fail(fmt.Errorf("membench write: %w", err))
				return
			}
			a.AddWork(n)
		}
	}
	if cap(w.buf) < n {
		w.buf = make([]byte, n)
	}
	w.buf = w.buf[:n]
	return w
}

// Pump implements Logic.
func (m *MemBench) Pump(a *Accel) {
	if m.bound != a {
		m.bind(a)
	}
	bytes := uint64(m.burst) * ccip.LineSize
	if len(m.scratch) < int(bytes) {
		m.scratch = make([]byte, bytes)
	}
	for a.CanIssue() {
		if !m.infinite && m.remaining == 0 {
			if a.Status() == StatusRunning {
				a.JobDone()
			}
			return
		}
		if !m.infinite {
			m.remaining--
		}
		slots := (m.size - bytes) / ccip.LineSize
		addr := m.base + m.rng.Uint64n(slots+1)*ccip.LineSize
		if m.rng.Uint64n(100) < m.writePct {
			w := m.getWrite(int(bytes))
			m.rng.Fill(w.buf[:8]) // pattern header; rest zero (hardware writes junk)
			a.Write(addr, w.buf, w.done)
		} else {
			a.ReadInto(addr, m.burst, m.scratch, m.onRead)
		}
	}
}

// SaveState implements Logic.
func (m *MemBench) SaveState() []byte {
	buf := make([]byte, m.StateBytes())
	off := 0
	put := func(v uint64) { putU64(buf[off:], v); off += 8 }
	for _, w := range m.rng.State() {
		put(w)
	}
	put(m.remaining)
	put(boolU64(m.infinite))
	put(m.base)
	put(m.size)
	put(uint64(m.burst))
	put(m.writePct)
	return buf
}

// RestoreState implements Logic.
func (m *MemBench) RestoreState(data []byte) error {
	if len(data) < m.StateBytes() {
		return fmt.Errorf("membench: short state (%d bytes)", len(data))
	}
	off := 0
	get := func() uint64 { v := getU64(data[off:]); off += 8; return v }
	var ws [4]uint64
	for i := range ws {
		ws[i] = get()
	}
	m.rng = sim.RandFromState(ws)
	m.remaining = get()
	m.infinite = get() != 0
	m.base = get()
	m.size = get()
	m.burst = int(get())
	m.writePct = get()
	if m.burst <= 0 {
		return fmt.Errorf("membench: corrupt state (burst %d)", m.burst)
	}
	return nil
}

// ResetLogic implements Logic.
func (m *MemBench) ResetLogic() { *m = MemBench{} }

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
