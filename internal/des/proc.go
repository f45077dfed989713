//go:build go1.23

package des

import (
	"fmt"
	"iter"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateReady   procState = iota // scheduled to run
	stateRunning                  // currently executing
	stateBlocked                  // waiting on a Signal
	stateDone                     // body returned
)

// Proc is a simulated process: a coroutine that advances virtual time by
// calling Delay and synchronizes with other processes via Signals and the
// structures built on them. All Proc methods must be called from the
// process's own body function.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	next  func() (struct{}, bool) // switch into the process until it yields
	stop  func()                  // unwind the process (see Kernel.Shutdown)
	yf    func(struct{}) bool     // switch back to the kernel; false once stopped
}

// errKilled is the sentinel Proc.yield panics with when Kernel.Shutdown
// stops a process, to unwind the body's stack silently.
type errKilled struct{}

// Spawn creates a process that starts executing body at virtual time
// now+startDelay. The body runs as an iter.Pull coroutine: the kernel
// switches into it on resume and it switches back when it delays, blocks
// or returns, so exactly one process runs at a time and each switch is a
// direct coroutine hand-off rather than a scheduler round trip.
//
// A panic in body is re-thrown from Run. runtime.Goexit in body (and so
// t.FailNow or t.Fatal in a test) ends the goroutine that called Run as
// well, because iter.Pull propagates Goexit to the caller of next: Run
// does not return.
func (k *Kernel) Spawn(name string, startDelay Time, body func(p *Proc)) *Proc {
	if startDelay < 0 {
		panic(fmt.Sprintf("des: negative start delay %d for process %q", startDelay, name))
	}
	p := &Proc{k: k, name: name, state: stateReady}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yf = yield
		defer func() {
			if v := recover(); v != nil {
				if _, ok := v.(errKilled); !ok {
					k.panicV = fmt.Errorf("des: process %q panicked: %v", name, v)
				}
			}
			p.state = stateDone
		}()
		body(p)
	})
	k.procs = append(k.procs, p)
	k.emit("spawn", name)
	k.push(k.now+startDelay, p, nil)
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Delay suspends the process for d ticks of virtual time. A non-positive
// d yields the processor without advancing time (the process is
// re-scheduled at the current instant, after already-pending events).
func (p *Proc) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.push(p.k.now+d, p, nil)
	p.yield(stateReady)
}

// yield returns control to the kernel, recording the new state.
func (p *Proc) yield(s procState) {
	p.state = s
	if !p.yf(struct{}{}) {
		panic(errKilled{})
	}
	p.state = stateRunning
}

// Signal is a wait queue processes can block on. The zero value is ready
// to use. Wakeups are FIFO and deterministic.
type Signal struct {
	waiters []*Proc
}

// Wait blocks the calling process until another process or a kernel
// callback calls Broadcast (or Wake reaches it). Typical use re-checks
// the guarded condition in a loop, as with sync.Cond.
func (p *Proc) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.k.emit("block", p.name)
	p.yield(stateBlocked)
}

// Broadcast wakes all processes waiting on s at the current virtual
// time. It is safe to call from process bodies and kernel callbacks.
func (k *Kernel) Broadcast(s *Signal) {
	for _, w := range s.waiters {
		if w.state == stateBlocked {
			w.state = stateReady
			k.push(k.now, w, nil)
		}
	}
	s.waiters = s.waiters[:0]
}

// NumWaiters returns how many processes are currently waiting on s.
func (s *Signal) NumWaiters() int { return len(s.waiters) }
