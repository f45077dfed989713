package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"ftpn/internal/des"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
)

// outcome is everything one scenario produced. The count fields and the
// digest are deterministic functions of (workload, seed, index); CPUNs
// is host CPU time and CallNs host wall time.
type outcome struct {
	Index  int
	CPUNs  int64           // process CPU time while the scenario ran
	CallNs [numCalls]int64 // traced runs only
	HashNs int64           // Token.Hash time inside the sink, traced runs only

	Digest uint64
	Fails  []string

	Events    uint64 // Kernel.Dispatched over every kernel of the scenario
	Procs     int
	Switches  int64 // "resume" trace events, traced runs only
	Tokens    int64 // tokens delivered to the benchmark's sink
	HashBytes int64 // payload bytes hashed by the sink

	SelWrites, SelDrops, ValueDrops int64
	Convictions                     int
	Recoveries, Incomplete          int
	FlightEvents                    int

	FalseConvictions int
	// LatencyUs is first conviction minus injection for a permanent
	// fault (-1: no permanent fault). SlackPct is (bound-latency)/bound
	// under the policy's own (m,k) bound (HasSlack false: no bound).
	LatencyUs int64
	SlackPct  float64
	HasSlack  bool
}

// scen is the per-scenario context a workload runs in.
type scen struct {
	idx int
	tr  *tracer // nil: untraced
	out outcome
	dig hash.Hash64
	// root is the id of the scenario's root span.
	root int64
	// runHashMark is the sink's hash time when the current Kernel.Run
	// began.
	runHashMark int64
}

func newScen(idx int, tr *tracer) *scen {
	return &scen{idx: idx, tr: tr, dig: fnv.New64a(),
		out: outcome{Index: idx, LatencyUs: -1}}
}

func (s *scen) fail(format string, args ...any) {
	s.out.Fails = append(s.out.Fails, fmt.Sprintf(format, args...))
}

// begin starts timing a call; untraced scenarios read no clock.
func (s *scen) begin() int64 {
	if s.tr == nil {
		return 0
	}
	return now()
}

// end records the call started at t0 as a child span of the scenario.
func (s *scen) end(c call, t0 int64) {
	if s.tr == nil {
		return
	}
	t1 := now()
	d := t1 - t0
	var hashNs int64
	if c == callRun {
		// The sink's Token.Hash calls run inside Kernel.Run; they are
		// kpn's time, not the kernel's.
		hashNs = s.out.HashNs - s.runHashMark
		d -= hashNs
	}
	s.out.CallNs[c] += d
	s.tr.add(span{Parent: s.root, Scenario: s.idx, Call: c, Start: t0, End: t1, HashNs: hashNs})
}

// beginRun starts timing a Kernel.Run call.
func (s *scen) beginRun() int64 {
	s.runHashMark = s.out.HashNs
	return s.begin()
}

// kernel creates a kernel, counting its context switches when traced.
func (s *scen) kernel() *des.Kernel {
	t := s.begin()
	k := des.NewKernel()
	s.end(callNewKernel, t)
	if s.tr != nil {
		k.Trace(func(ev des.TraceEvent) {
			if ev.Kind == "resume" {
				s.out.Switches++
			}
		})
	}
	return k
}

// run drives k to completion and shuts it down.
func (s *scen) run(k *des.Kernel) {
	t := s.beginRun()
	k.Run(0)
	s.end(callRun, t)
	t = s.begin()
	k.Shutdown()
	s.end(callShutdown, t)
	s.out.Events += k.Dispatched()
	s.out.Procs += k.NumProcs()
	s.u64(k.Dispatched())
}

// tokenID identifies a consumer token for golden-stream comparison.
type tokenID struct {
	seq  int64
	hash uint64
}

// sink records the consumer stream as (Seq, Token.Hash) pairs.
func (s *scen) sink(dst *[]tokenID) func(des.Time, kpn.Token) {
	return func(_ des.Time, tok kpn.Token) {
		var t0 int64
		if s.tr != nil {
			t0 = now()
		}
		h := tok.Hash()
		if s.tr != nil {
			s.out.HashNs += now() - t0
		}
		s.out.Tokens++
		s.out.HashBytes += int64(len(tok.Payload))
		*dst = append(*dst, tokenID{tok.Seq, h})
	}
}

// u64 folds a deterministic value into the scenario digest.
func (s *scen) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.dig.Write(b[:])
}

func (s *scen) i64(v int64) { s.u64(uint64(v)) }

func (s *scen) str(v string) {
	s.u64(uint64(len(v)))
	s.dig.Write([]byte(v))
}

// stream folds a consumer stream into the digest.
func (s *scen) stream(st []tokenID) {
	s.u64(uint64(len(st)))
	for _, t := range st {
		s.i64(t.seq)
		s.u64(t.hash)
	}
}

// system folds a finished system's convictions and arbitration counters
// into the digest and the outcome's deterministic counts.
func (s *scen) system(sys *ft.System) {
	s.out.Convictions += len(sys.Faults)
	s.u64(uint64(len(sys.Faults)))
	for _, f := range sys.Faults {
		s.str(f.Channel)
		s.i64(int64(f.Replica))
		s.i64(f.At)
		s.str(string(f.Reason))
		s.str(string(f.Kind))
	}
	for _, name := range sortedKeys(sys.Selectors) {
		sel := sys.Selectors[name]
		for r := 1; r <= 2; r++ {
			s.out.SelWrites += sel.Writes(r)
			s.out.SelDrops += sel.Drops(r)
			s.out.ValueDrops += sel.ValueDrops(r)
			s.i64(sel.Writes(r))
			s.i64(sel.Drops(r))
			s.i64(sel.ValueDrops(r))
		}
	}
}

// sameStream reports the first difference between a stream and its
// golden reference, or "" when they are token-identical.
func sameStream(got, want []tokenID) string {
	if len(got) != len(want) {
		return fmt.Sprintf("consumer stream has %d tokens, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("consumer token %d = (seq %d, hash %x), golden (seq %d, hash %x)",
				i, got[i].seq, got[i].hash, want[i].seq, want[i].hash)
		}
	}
	return ""
}
