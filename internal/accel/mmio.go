package accel

import (
	"fmt"

	"optimus/internal/ccip"
)

// MMIORead implements hwmon.MMIOHandler.
func (a *Accel) MMIORead(off uint64) uint64 {
	switch off {
	case RegStatus:
		return a.status
	case RegStateSize:
		return uint64(a.stateLines() * ccip.LineSize)
	case RegStateAddr:
		return a.stateAddr
	case RegBytesRead:
		return a.bytesRead
	case RegBytesWritten:
		return a.bytesWritten
	case RegWorkDone:
		return a.workDone
	}
	if off >= RegArgBase && off < RegArgBase+NumArgRegs*8 && off%8 == 0 {
		return a.args[(off-RegArgBase)/8]
	}
	return 0
}

// MMIOWrite implements hwmon.MMIOHandler.
func (a *Accel) MMIOWrite(off uint64, val uint64) {
	switch {
	case off == RegCtrl:
		a.command(val)
	case off == RegStateAddr:
		a.stateAddr = val
	case off >= RegArgBase && off < RegArgBase+NumArgRegs*8 && off%8 == 0:
		a.args[(off-RegArgBase)/8] = val
	}
}

func (a *Accel) command(cmd uint64) {
	switch cmd {
	case CmdStart:
		if a.status != StatusIdle && a.status != StatusDone && a.status != StatusError {
			a.Fail(fmt.Errorf("accel %s: start while %s", a.Name(), StatusName(a.status)))
			return
		}
		a.lastErr = nil
		a.preempting = false
		a.window = 16
		a.workDone = 0
		a.setStatus(StatusRunning)
		a.logic.Start(a)
		if a.status == StatusRunning {
			a.logic.Pump(a)
		}
	case CmdPreempt:
		if a.status != StatusRunning {
			return // nothing to preempt; hypervisor reads STATUS to notice
		}
		a.preempting = true
		a.setStatus(StatusSaving)
		if a.outstanding == 0 {
			a.saveState()
		}
	case CmdResume:
		if a.status != StatusIdle && a.status != StatusDone {
			a.Fail(fmt.Errorf("accel %s: resume while %s", a.Name(), StatusName(a.status)))
			return
		}
		a.lastErr = nil
		a.preempting = false
		a.window = 16
		a.setStatus(StatusLoading)
		a.loadState()
	}
}

// stateHeader is the framework's own contribution to the preemption state:
// the progress counter, the issue window, and the logic-state length.
const stateHeader = 24

// stateLines rounds the logic's state footprint up to whole cache lines
// (at least one, for the framework's own counters).
func (a *Accel) stateLines() int {
	n := a.logic.StateBytes() + stateHeader
	lines := (n + ccip.LineSize - 1) / ccip.LineSize
	if lines < 1 {
		lines = 1
	}
	return lines
}

// saveState drains are complete; serialize and DMA the execution state to
// the guest-provided buffer, then report StatusSaved.
func (a *Accel) saveState() {
	state := a.logic.SaveState()
	buf := make([]byte, a.stateLines()*ccip.LineSize)
	putU64(buf[0:], a.workDone)
	putU64(buf[8:], uint64(a.window))
	putU64(buf[16:], uint64(len(state)))
	copy(buf[stateHeader:], state)
	if a.stateAddr == 0 {
		// No buffer provided: state stays in the register file (models a
		// hypervisor that context-switches without eviction).
		a.savedInPlace = buf
		a.setStatus(StatusSaved)
		return
	}
	a.outstanding++
	epoch := a.epoch
	a.port.Issue(ccip.Request{
		Kind: ccip.WrLine, Addr: a.stateAddr, Lines: len(buf) / ccip.LineSize, Data: buf,
		VC: a.vc(), Issued: a.k.Now(),
		Comp: ccip.CompleterFunc(func(r ccip.Response) {
			if !a.complete(epoch) {
				return
			}
			if r.Err != nil {
				a.Fail(fmt.Errorf("accel %s: state save DMA failed: %w", a.Name(), r.Err))
				return
			}
			a.bytesWritten += uint64(len(buf))
			a.setStatus(StatusSaved)
		}),
	})
}

// loadState DMAs the execution state back and resumes the logic.
func (a *Accel) loadState() {
	finish := func(buf []byte) {
		work := getU64(buf[0:])
		window := getU64(buf[8:])
		n := getU64(buf[16:])
		if int(n) > len(buf)-stateHeader || window == 0 || window > 1<<16 {
			a.Fail(fmt.Errorf("accel %s: corrupt state header", a.Name()))
			return
		}
		if err := a.logic.RestoreState(buf[stateHeader : stateHeader+n]); err != nil {
			a.Fail(fmt.Errorf("accel %s: state restore: %w", a.Name(), err))
			return
		}
		a.workDone = work
		a.window = int(window)
		a.setStatus(StatusRunning)
		a.logic.Pump(a)
	}
	if a.stateAddr == 0 {
		if a.savedInPlace == nil {
			a.Fail(fmt.Errorf("accel %s: resume with no state", a.Name()))
			return
		}
		buf := a.savedInPlace
		a.savedInPlace = nil
		finish(buf)
		return
	}
	a.outstanding++
	epoch := a.epoch
	a.port.Issue(ccip.Request{
		Kind: ccip.RdLine, Addr: a.stateAddr, Lines: a.stateLines(),
		VC: a.vc(), Issued: a.k.Now(),
		Comp: ccip.CompleterFunc(func(r ccip.Response) {
			if !a.complete(epoch) {
				return
			}
			if r.Err != nil {
				a.Fail(fmt.Errorf("accel %s: state load DMA failed: %w", a.Name(), r.Err))
				return
			}
			a.bytesRead += uint64(len(r.Data))
			finish(r.Data)
		}),
	})
}

// Reset is the hardware reset line (wired to the auditor's reset table):
// all in-flight work is abandoned, registers clear, state machine to idle.
func (a *Accel) Reset() {
	a.epoch++
	a.outstanding = 0
	a.preempting = false
	a.stateAddr = 0
	a.savedInPlace = nil
	a.lastErr = nil
	a.args = [NumArgRegs]uint64{}
	a.logic.ResetLogic()
	a.setStatus(StatusIdle)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
