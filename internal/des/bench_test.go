package des

import "testing"

// BenchmarkKernelChurn measures the event-scheduling hot path: two
// processes ping-ponging through Delay plus a periodic callback, the mix
// Table2 simulations exercise. With the event freelist, steady-state
// scheduling performs zero heap allocations per event (run with
// -benchmem; the small constant per op is the set-up of each Spawn's
// iter.Pull coroutine, not events or switches).
func BenchmarkKernelChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for p := 0; p < 2; p++ {
			k.Spawn("worker", 0, func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Delay(3)
				}
			})
		}
		k.Every(5, func() bool { return k.Now() < 2500 })
		k.Run(0)
		k.Shutdown()
	}
}

// BenchmarkProcSwitch measures one process switch: two processes hand
// the turn to each other through a Signal, so every resume switches
// into a process and back out when it waits again. ns/switch is host
// time per resume (the des.switches unit of the repository benchmark).
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel()
	var turnSig Signal
	turn, left := 0, b.N
	for id := 0; id < 2; id++ {
		k.Spawn("pingpong", 0, func(p *Proc) {
			for {
				for turn != id {
					p.Wait(&turnSig)
				}
				if left == 0 {
					k.Stop()
					return
				}
				left--
				turn = 1 - id
				k.Broadcast(&turnSig)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(0)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Dispatched()), "ns/switch")
	k.Shutdown()
}

// BenchmarkEventSchedule isolates push/pop of pure callback events with
// no process machinery at all: the per-event cost of the heap plus the
// freelist, and zero allocs/op after warm-up.
func BenchmarkEventSchedule(b *testing.B) {
	k := NewKernel()
	var n int
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			k.After(1, tick)
		}
	}
	// Warm the freelist and the heap backing array.
	n = 16
	k.After(1, tick)
	k.Run(0)

	b.ReportAllocs()
	b.ResetTimer()
	n = b.N
	k.After(1, tick)
	k.Run(0)
}

// TestFreelistReuse pins the zero-allocation property: once warm, the
// kernel schedules events without allocating.
func TestFreelistReuse(t *testing.T) {
	k := NewKernel()
	var n int
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			k.After(1, tick)
		}
	}
	n = 64
	k.After(1, tick)
	k.Run(0)

	allocs := testing.AllocsPerRun(100, func() {
		n = 50
		k.After(1, tick)
		k.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("warm kernel allocated %.1f times per 50-event run, want 0", allocs)
	}
}
