package des

import (
	"runtime"
	"testing"
)

// Regression tests for the coroutine process driver: every process is an
// iter.Pull coroutine, switched into by Kernel.resume and stopped by
// Kernel.Shutdown.

// TestShutdownReleasesCoroutines checks that Shutdown releases the
// coroutine of every process whatever its state: one that never
// started, one that is ready (its next event lies past the Run limit),
// one blocked on a Signal and one whose body returned.
func TestShutdownReleasesCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	var sig Signal
	k.Spawn("never-started", 100, func(p *Proc) { t.Error("never-started ran its body") })
	k.Spawn("ready", 0, func(p *Proc) {
		for {
			p.Delay(7)
		}
	})
	k.Spawn("blocked", 0, func(p *Proc) { p.Wait(&sig) })
	k.Spawn("done", 0, func(p *Proc) { p.Delay(1) })
	if got := runtime.NumGoroutine(); got <= base {
		t.Fatalf("NumGoroutine after Spawn = %d, want > %d (one coroutine per live process)", got, base)
	}
	k.Run(10)
	if got := k.Blocked(); len(got) != 1 || got[0] != "blocked" {
		t.Fatalf("Blocked() = %v, want [blocked]", got)
	}
	k.Shutdown()
	// Only this test creates goroutines while it runs, so any count
	// above the baseline is a coroutine Shutdown failed to release.
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("NumGoroutine after Shutdown = %d, want baseline %d", got, base)
	}
	for _, p := range k.procs {
		if p.state != stateDone {
			t.Errorf("process %q state %d after Shutdown, want done", p.name, p.state)
		}
	}
}

// TestKilledBeforeStartNeverRuns pins that a process stopped before its
// first resume never executes any of its body, deferred calls included.
func TestKilledBeforeStartNeverRuns(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("late", 50, func(p *Proc) {
		defer func() { ran = true }()
		ran = true
	})
	k.Run(10)
	k.Shutdown()
	if ran {
		t.Error("process killed before its first resume ran its body")
	}
}

// TestProcessPanicMessage checks the exact form of the error Run
// re-panics with, and that the kernel still shuts down cleanly after.
func TestProcessPanicMessage(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	var sig Signal
	k.Spawn("waiter", 0, func(p *Proc) { p.Wait(&sig) })
	k.Spawn("bomb", 0, func(p *Proc) {
		p.Delay(3)
		panic("kaput")
	})
	func() {
		defer func() {
			v := recover()
			err, ok := v.(error)
			if !ok {
				t.Fatalf("Run panicked with %v (%T), want an error", v, v)
			}
			if want := `des: process "bomb" panicked: kaput`; err.Error() != want {
				t.Errorf("panic = %q, want %q", err, want)
			}
		}()
		k.Run(0)
		t.Fatal("Run returned without re-panicking")
	}()
	if k.Now() != 3 {
		t.Errorf("Now() = %d after panic, want 3", k.Now())
	}
	k.Shutdown()
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("NumGoroutine after Shutdown = %d, want baseline %d", got, base)
	}
}

// TestDelaySwitchAllocs pins that a steady-state Delay — the kernel
// switching into a process and the process switching back — allocates
// nothing: iter.Pull allocates once per Spawn, never per switch.
func TestDelaySwitchAllocs(t *testing.T) {
	k := NewKernel()
	k.Spawn("ticker", 0, func(p *Proc) {
		for {
			p.Delay(1)
		}
	})
	k.Run(64) // warm the event freelist and the queue
	allocs := testing.AllocsPerRun(200, func() {
		k.Run(k.Now() + 1) // exactly one resume and one Delay
	})
	k.Shutdown()
	if allocs != 0 {
		t.Errorf("steady-state Delay switch allocated %.1f times, want 0", allocs)
	}
}

// TestGoexitInProcessEndsRunCaller documents what runtime.Goexit (and so
// t.FailNow, t.Fatal or t.SkipNow) inside a process body does: iter.Pull
// propagates it to the caller of next, so the goroutine that called Run
// exits too, running its deferred calls, and Run never returns. Calling
// t.Fatal in a process body therefore ends the test goroutine that
// drives the kernel, as it would in plain test code.
func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	k := NewKernel()
	bodyDeferRan := false
	k.Spawn("quitter", 0, func(p *Proc) {
		defer func() { bodyDeferRan = true }()
		p.Delay(2)
		runtime.Goexit()
	})
	k.Spawn("bystander", 0, func(p *Proc) { p.Delay(5) })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Run(0)
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned after runtime.Goexit in a process body")
	}
	if !bodyDeferRan {
		t.Error("process body's deferred calls did not run on Goexit")
	}
	if k.Now() != 2 {
		t.Errorf("Now() = %d, want 2 (the instant of the Goexit)", k.Now())
	}
	k.Shutdown()
}
