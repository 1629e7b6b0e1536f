package ccip

import (
	"testing"

	"optimus/internal/chaos"
	"optimus/internal/sim"
)

// issueCounted issues n single-line writes and returns the per-request
// completion counts and errors after the kernel drains.
func issueCounted(k *sim.Kernel, s *Shell, n int) (counts []int, errs []error) {
	counts = make([]int, n)
	errs = make([]error, n)
	payload := make([]byte, LineSize)
	for i := 0; i < n; i++ {
		i := i
		s.Issue(Request{Kind: WrLine, Addr: uint64(i) * LineSize, Lines: 1,
			Data: payload, VC: VCUPI, Issued: k.Now(), Comp: CompleterFunc(func(r Response) {
				counts[i]++
				errs[i] = r.Err
			})})
	}
	k.Run()
	return counts, errs
}

// TestChaosDupSuppressed is the dup-completion guard test: with duplicated
// completions injected on every request, each request still completes
// exactly once, and every duplicate is caught by the generation guard.
func TestChaosDupSuppressed(t *testing.T) {
	k, s := testShell(t, DefaultConfig(), 64<<20)
	p := chaos.NewPlan(chaos.Config{Seed: 11, DupPPM: 1_000_000})
	s.SetChaos(p)

	const n = 200
	counts, errs := issueCounted(k, s, n)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("request %d completed %d times, want exactly 1", i, c)
		}
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
	}
	st := p.Stats()
	if st.Injected[chaos.ClassDup] != n {
		t.Fatalf("injected %d dups, want %d", st.Injected[chaos.ClassDup], n)
	}
	if st.DupsSuppressed != st.Injected[chaos.ClassDup] {
		t.Fatalf("suppressed %d of %d injected dups — a duplicate leaked or was lost",
			st.DupsSuppressed, st.Injected[chaos.ClassDup])
	}
}

// TestChaosWireFaultsRecover: corruption and drops are retransmitted — every
// request completes exactly once, without error, and the recovery latency is
// accounted.
func TestChaosWireFaultsRecover(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  chaos.Config
	}{
		{"corrupt", chaos.Config{Seed: 5, CorruptPPM: 1_000_000}},
		{"drop", chaos.Config{Seed: 5, DropPPM: 1_000_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, s := testShell(t, DefaultConfig(), 64<<20)
			p := chaos.NewPlan(tc.cfg)
			s.SetChaos(p)
			const n = 100
			counts, errs := issueCounted(k, s, n)
			for i, c := range counts {
				if c != 1 || errs[i] != nil {
					t.Fatalf("request %d: %d completions, err %v", i, c, errs[i])
				}
			}
			st := p.Stats()
			if st.Retransmits != n || st.Recovered != n {
				t.Fatalf("retransmits=%d recovered=%d, want %d each", st.Retransmits, st.Recovered, n)
			}
			if p.Recovery().Count() != n {
				t.Fatalf("recovery histogram has %d samples, want %d", p.Recovery().Count(), n)
			}
			if tc.cfg.DropPPM > 0 && p.Recovery().Min() < p.Config().DropTimeout {
				t.Fatalf("drop recovery %v faster than the loss-detection timeout %v",
					p.Recovery().Min(), p.Config().DropTimeout)
			}
		})
	}
}

// TestChaosXlatRetry: transient translation faults recover within the retry
// budget when retries succeed, and surface ErrInjectedFault when every
// retry re-faults — never losing or double-completing the request either way.
func TestChaosXlatRetry(t *testing.T) {
	t.Run("recovers", func(t *testing.T) {
		k, s := testShell(t, DefaultConfig(), 64<<20)
		// RepeatPPM=1 ≈ retries always succeed (0 is "use the default").
		p := chaos.NewPlan(chaos.Config{Seed: 9, XlatPPM: 1_000_000, RepeatPPM: 1})
		s.SetChaos(p)
		const n = 100
		counts, errs := issueCounted(k, s, n)
		for i, c := range counts {
			if c != 1 || errs[i] != nil {
				t.Fatalf("request %d: %d completions, err %v", i, c, errs[i])
			}
		}
		st := p.Stats()
		if st.XlatRetries != n || st.Recovered != n || st.Exhausted != 0 {
			t.Fatalf("retries=%d recovered=%d exhausted=%d, want %d/%d/0",
				st.XlatRetries, st.Recovered, st.Exhausted, n, n)
		}
	})
	t.Run("exhausts", func(t *testing.T) {
		k, s := testShell(t, DefaultConfig(), 64<<20)
		p := chaos.NewPlan(chaos.Config{Seed: 9, XlatPPM: 1_000_000, RepeatPPM: 1_000_000})
		s.SetChaos(p)
		const n = 50
		counts, errs := issueCounted(k, s, n)
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("request %d completed %d times, want exactly 1", i, c)
			}
			if errs[i] != ErrInjectedFault {
				t.Fatalf("request %d error = %v, want ErrInjectedFault", i, errs[i])
			}
		}
		st := p.Stats()
		if st.Exhausted != n || st.Recovered != 0 {
			t.Fatalf("exhausted=%d recovered=%d, want %d/0", st.Exhausted, st.Recovered, n)
		}
		if st.XlatRetries != n*uint64(p.MaxRetries()) {
			t.Fatalf("retries=%d, want %d", st.XlatRetries, n*uint64(p.MaxRetries()))
		}
	})
}

// TestChaosZeroRatePlanIsTransparent: an armed plan with all-zero rates
// behaves identically to no plan at all (same stats, same completion time),
// so sweeps can use rate 0 as a true baseline.
func TestChaosZeroRatePlanIsTransparent(t *testing.T) {
	run := func(p *chaos.Plan) (ShellStats, sim.Time) {
		k, s := testShell(t, DefaultConfig(), 64<<20)
		s.SetChaos(p)
		issueCounted(k, s, 100)
		return s.Stats(), k.Now()
	}
	nilStats, nilEnd := run(nil)
	zeroStats, zeroEnd := run(chaos.NewPlan(chaos.Config{Seed: 1}))
	if nilEnd != zeroEnd {
		t.Fatalf("end time differs: nil plan %v, zero-rate plan %v", nilEnd, zeroEnd)
	}
	if nilStats.Writes != zeroStats.Writes || nilStats.BytesWritten != zeroStats.BytesWritten ||
		nilStats.Faults != zeroStats.Faults {
		t.Fatalf("stats differ: %+v vs %+v", nilStats, zeroStats)
	}
}
