package hwmon

import (
	"testing"

	"optimus/internal/sim"
)

// TestRingFIFOAcrossWrapAndGrowth drives the tree's queue ring against a
// slice model through pushes and pops whose balance swings back and forth,
// so the head wraps around the array many times and the ring grows while
// wrapped. Every pop must return the oldest entry, the storage must stay a
// power of two no larger than the peak occupancy needs, and every slot
// outside the live window must be nil, so popped records stay unreachable.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var (
		r     ring
		model []*inflight
		peak  int
	)
	rng := sim.NewRand(0x417)
	check := func(step int) {
		t.Helper()
		if r.n != len(model) || r.empty() != (len(model) == 0) {
			t.Fatalf("step %d: ring holds %d entries, model %d", step, r.n, len(model))
		}
		size := len(r.buf)
		if size&(size-1) != 0 || (size > 8 && size/2 >= peak) {
			t.Fatalf("step %d: storage %d slots for a peak of %d", step, size, peak)
		}
		for i, fl := range r.buf {
			if pos := (i - r.head + size) % size; pos < r.n {
				if fl != model[pos] {
					t.Fatalf("step %d: slot %d holds the wrong entry", step, i)
				}
			} else if fl != nil {
				t.Fatalf("step %d: vacated slot %d still references a record", step, i)
			}
		}
	}
	for step := 0; step < 40000; step++ {
		pushPct := 35 // draining phase
		if step/1500%2 == 0 {
			pushPct = 65 // filling phase
		}
		if len(model) == 0 || rng.Intn(100) < pushPct {
			fl := &inflight{}
			r.push(fl)
			model = append(model, fl)
			peak = max(peak, len(model))
		} else {
			want := model[0]
			model = model[1:]
			if got := r.peek(); got != want {
				t.Fatalf("step %d: peek returned an entry out of FIFO order", step)
			}
			if got := r.pop(); got != want {
				t.Fatalf("step %d: pop returned an entry out of FIFO order", step)
			}
		}
		check(step)
	}
	if peak < 64 {
		t.Fatalf("peak occupancy %d: the schedule never forced growth", peak)
	}
}
