package main

import "slices"

// The host a run lands on changes speed over minutes. On a shared
// 2-vCPU Xeon VM, runs of one workload a few minutes apart read 3.1 and
// 4.0 ms per campaign scenario in CPU time, and sets of ten runs spread
// by more than the bounds allow. A run therefore also times a fixed
// reference loop, interleaved with its own work, and reports host times
// at the speed where the loop takes refNominalNs: a measured time is
// multiplied by refNominalNs / (the loop's median time in the run). The
// loop runs none of the program's code, so a change to the program
// moves the corrected times as much as the raw ones. The report's
// ref_loop_us is the loop's median, so the raw times can be recovered.

// refNominalNs is the reference loop's CPU time on the host the bounds
// were set on (2-vCPU Xeon VM, Go 1.24); it only scales the reports.
const refNominalNs = 600_000

const (
	refHandoffs = 400     // goroutine round trips, as the DES kernel makes
	refLookups  = 6000    // map lookups, as the program's tables make
	refHashLen  = 1 << 16 // bytes hashed with FNV-1a, as the sink does
	refMapLen   = 4096    // entries of the looked-up map
	refSort     = 256     // keys sorted per pass
	refReps     = 3       // a sample is the fastest of this many passes
)

// refLoop is one worker's reference loop: goroutine handoffs for about
// half of its time, lookups, hashing and sorting for the other half.
// Over two 15-minute campaign runs, sampled every 16 scenarios and
// binned by 20 s, the bins' median scenario time moved by up to 23%.
// The handoffs alone moved 1.5–1.7 times as much as the scenarios, the
// other half 0.5–0.6 times; half and half moved as much as the
// scenarios, and dividing by it left 1.5% (standard deviation) of the
// scenarios' 4.9–5.3%. The loop allocates nothing after newRefLoop.
// The handoffs go through the Go scheduler, which also runs garbage
// collection work: beside topo and forensics they took 7% longer than
// beside campaign, the lookups and hashing within 1%.
type refLoop struct {
	ping, pong chan uint64
	buf        []byte
	m          map[uint64]uint64
	keys       []uint64
	sink       uint64
}

// newRefLoop builds a loop and starts its partner goroutine; stop ends
// it.
func newRefLoop() *refLoop {
	r := &refLoop{
		ping: make(chan uint64),
		pong: make(chan uint64),
		buf:  make([]byte, refHashLen),
		m:    make(map[uint64]uint64, refMapLen),
		keys: make([]uint64, refSort),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range r.buf {
		x = xorshift(x)
		r.buf[i] = byte(x)
	}
	for i := range uint64(refMapLen) {
		x = xorshift(x)
		r.m[i] = x
	}
	go func() {
		defer close(r.pong)
		for v := range r.ping {
			r.pong <- v + 1
		}
	}()
	return r
}

// stop ends the partner goroutine and waits for it.
func (r *refLoop) stop() {
	close(r.ping)
	for range r.pong {
	}
}

// sample returns the CPU time of the fastest of refReps passes, in ns.
func (r *refLoop) sample() float64 {
	best := int64(-1)
	for range refReps {
		t0 := cpuNow()
		r.pass()
		if d := cpuNow() - t0; best < 0 || d < best {
			best = d
		}
	}
	return float64(best)
}

// pass runs the loop's fixed work once.
func (r *refLoop) pass() {
	v := r.sink
	for range refHandoffs {
		r.ping <- v
		v = <-r.pong
	}
	for i := range uint64(refLookups) {
		v += r.m[(v+i)%refMapLen]
	}
	h := uint64(14695981039346656037)
	for _, b := range r.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	x := h | 1
	for i := range r.keys {
		x = xorshift(x)
		r.keys[i] = x
	}
	slices.Sort(r.keys)
	r.sink = v + h + r.keys[0]
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
