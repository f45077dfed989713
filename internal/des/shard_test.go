package des

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// toyLog records deliveries of a minimal cross-shard workload: periodic
// sources on one shard sending stamped values to a sink on another, via
// the real TimedRing transport. The same workload can be wired onto a
// single kernel, giving a sequential oracle. Comparison is canonical —
// sorted by (at, tag) — because cross-link arrivals at the same instant
// may drain in different rounds; per-link order is what the protocol
// guarantees, and it is what the kpn trace contract depends on.
type toyLog struct {
	recs []toyRec
}

type toyRec struct {
	at  Time
	tag string
	v   int64
}

func (l *toyLog) add(at Time, tag string, v int64) {
	l.recs = append(l.recs, toyRec{at, tag, v})
}

func (l *toyLog) canon() string {
	recs := append([]toyRec(nil), l.recs...)
	slices.SortFunc(recs, func(a, b toyRec) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if a.tag != b.tag {
			if a.tag < b.tag {
				return -1
			}
			return 1
		}
		return int(a.v - b.v)
	})
	var sb []byte
	for _, r := range recs {
		sb = fmt.Appendf(sb, "%d %s %d\n", r.at, r.tag, r.v)
	}
	return string(sb)
}

// wireToy builds `senders` periodic sources on shard 0 (or kernel k0
// when sk is nil) delivering to a sink log on shard 1 (or the same
// kernel). Returns the sink log.
func wireToy(sk *ShardedKernel, k0, k1 *Kernel, senders, count int, period, delay Time) *toyLog {
	log := &toyLog{}
	for s := 0; s < senders; s++ {
		s := s
		ring := NewTimedRing[int64](64)
		var link *Link
		if sk != nil {
			link = sk.Connect(0, 1, delay)
			sk.RegisterDrain(1, func(k *Kernel) int64 {
				var n int64
				for {
					m, ok := ring.TryPop()
					if !ok {
						break
					}
					k.At(m.At, func() { log.add(k.Now(), fmt.Sprintf("s%d", s), m.V) })
					n++
				}
				link.NotifyDrained(n)
				return n
			})
		}
		i := 0
		k0.Spawn(fmt.Sprintf("src%d", s), 0, func(p *Proc) {
			for ; i < count; i++ {
				p.Delay(period)
				v := int64(s*1000 + i)
				if sk != nil {
					at := p.Now() + delay
					for !ring.TryPush(Stamped[int64]{At: at, V: v}) {
						link.StallWake()
					}
					link.NotifySent()
				} else {
					at := p.Now() + delay
					k1.At(at, func() { log.add(k1.Now(), fmt.Sprintf("s%d", s), v) })
				}
			}
		})
	}
	return log
}

func TestShardedToyMatchesSequential(t *testing.T) {
	const senders, count = 3, 50
	const period, delay = Time(7), Time(5)

	seqK := NewKernel()
	seqLog := wireToy(nil, seqK, seqK, senders, count, period, delay)
	seqK.Run(0)
	seqK.Shutdown()

	sk := NewShardedKernel(2)
	shLog := wireToy(sk, sk.Shard(0), sk.Shard(1), senders, count, period, delay)
	sk.Run(0)
	sk.Shutdown()

	if len(seqLog.recs) != senders*count {
		t.Fatalf("sequential log has %d entries, want %d", len(seqLog.recs), senders*count)
	}
	if seq, shd := seqLog.canon(), shLog.canon(); seq != shd {
		t.Fatalf("sharded delivery log diverges from sequential:\nseq:\n%s\nshd:\n%s", seq, shd)
	}
	st := sk.Stats()
	if st.Drained != int64(senders*count) {
		t.Fatalf("drained %d messages, want %d", st.Drained, senders*count)
	}
	if st.NullMessages == 0 {
		t.Fatalf("expected null-message publications, got none (stats %+v)", st)
	}
}

func TestShardedPingPongCycle(t *testing.T) {
	// Two shards exchanging replies: exercises in-flight detection and
	// the global fixed point on a cyclic link graph.
	const rounds = 40
	const delay = Time(3)
	sk := NewShardedKernel(2)
	r01 := NewTimedRing[int64](8)
	r10 := NewTimedRing[int64](8)
	l01 := sk.Connect(0, 1, delay)
	l10 := sk.Connect(1, 0, delay)

	var deliveries []string
	send := func(ring *TimedRing[int64], l *Link, at Time, v int64) {
		for !ring.TryPush(Stamped[int64]{At: at, V: v}) {
			l.StallWake()
		}
		l.NotifySent()
	}
	sk.RegisterDrain(1, func(k *Kernel) int64 {
		var n int64
		for {
			m, ok := r01.TryPop()
			if !ok {
				break
			}
			k.At(m.At, func() {
				deliveries = append(deliveries, fmt.Sprintf("1@%d:%d", k.Now(), m.V))
				if m.V < rounds {
					send(r10, l10, k.Now()+delay, m.V+1)
				}
			})
			n++
		}
		l01.NotifyDrained(n)
		return n
	})
	var back atomic.Int64
	sk.RegisterDrain(0, func(k *Kernel) int64 {
		var n int64
		for {
			m, ok := r10.TryPop()
			if !ok {
				break
			}
			k.At(m.At, func() {
				back.Add(1)
				if m.V < rounds {
					send(r01, l01, k.Now()+delay, m.V+1)
				}
			})
			n++
		}
		l10.NotifyDrained(n)
		return n
	})
	sk.Shard(0).At(0, func() { send(r01, l01, delay, 1) })

	reached := sk.Run(0)
	sk.Shutdown()

	wantFwd := rounds/2 + rounds%2
	if len(deliveries) != wantFwd {
		t.Fatalf("shard 1 saw %d deliveries, want %d: %v", len(deliveries), wantFwd, deliveries)
	}
	// Value v is delivered at v*delay.
	for i, d := range deliveries {
		v := int64(2*i + 1)
		if want := fmt.Sprintf("1@%d:%d", Time(v)*delay, v); d != want {
			t.Fatalf("delivery %d = %q, want %q", i, d, want)
		}
	}
	if want := Time(rounds) * delay; reached < want {
		t.Fatalf("Run reached %d, want at least %d", reached, want)
	}
	if got := back.Load(); got != rounds/2 {
		t.Fatalf("shard 0 saw %d replies, want %d", got, rounds/2)
	}
}

func TestShardedRunUntilResumes(t *testing.T) {
	mk := func() (*ShardedKernel, *int) {
		sk := NewShardedKernel(2)
		ring := NewTimedRing[int64](16)
		l := sk.Connect(0, 1, 10)
		n := new(int)
		sk.RegisterDrain(1, func(k *Kernel) int64 {
			var c int64
			for {
				m, ok := ring.TryPop()
				if !ok {
					break
				}
				k.At(m.At, func() { *n++ })
				c++
			}
			l.NotifyDrained(c)
			return c
		})
		sk.Shard(0).Spawn("src", 0, func(p *Proc) {
			for i := 0; i < 30; i++ {
				p.Delay(10)
				for !ring.TryPush(Stamped[int64]{At: p.Now() + 10, V: int64(i)}) {
					l.StallWake()
				}
				l.NotifySent()
			}
		})
		return sk, n
	}

	skA, nA := mk()
	skA.Run(155)
	gotAt155 := *nA
	skA.Run(0)
	skA.Shutdown()
	if *nA != 30 {
		t.Fatalf("resumed run delivered %d, want 30", *nA)
	}

	skB, nB := mk()
	skB.Run(155)
	skB.Shutdown()
	// Deliveries happen at 20,30,...,310; at most 14 fit in [0,155].
	if gotAt155 != 14 || *nB != 14 {
		t.Fatalf("limited runs delivered %d and %d, want 14", gotAt155, *nB)
	}
}

func TestShardedPanicPropagates(t *testing.T) {
	sk := NewShardedKernel(2)
	sk.Connect(0, 1, 5)
	sk.Shard(1).Spawn("boom", 0, func(p *Proc) {
		p.Delay(3)
		panic("kaboom")
	})
	defer sk.Shutdown()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatalf("expected panic to propagate out of Run")
		}
		if got := fmt.Sprint(v); got != `des: process "boom" panicked: kaboom` {
			t.Fatalf("unexpected panic value %q", got)
		}
	}()
	sk.Run(0)
}

func TestConnectRejectsBadLinks(t *testing.T) {
	sk := NewShardedKernel(2)
	for _, bad := range []func(){
		func() { sk.Connect(0, 0, 5) },
		func() { sk.Connect(0, 1, 0) },
		func() { sk.Connect(0, 1, -3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestTraceCollectorMergesDeterministically(t *testing.T) {
	run := func(shards int) []byte {
		tc := NewTraceCollector()
		if shards == 1 {
			k := NewKernel()
			tc.Attach(k)
			for i := 0; i < 3; i++ {
				i := i
				k.Spawn(fmt.Sprintf("p%d", i), Time(i), func(p *Proc) {
					for j := 0; j < 5; j++ {
						p.Delay(4)
					}
				})
			}
			k.Run(0)
			k.Shutdown()
		} else {
			sk := NewShardedKernel(shards)
			for i := 0; i < shards; i++ {
				tc.Attach(sk.Shard(i))
			}
			for i := 0; i < 3; i++ {
				i := i
				k := sk.Shard(i % shards)
				k.Spawn(fmt.Sprintf("p%d", i), Time(i), func(p *Proc) {
					for j := 0; j < 5; j++ {
						p.Delay(4)
					}
				})
			}
			sk.Run(0)
			sk.Shutdown()
		}
		return tc.Bytes()
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatalf("empty sequential trace")
	}
	for _, shards := range []int{2, 3} {
		if got := run(shards); string(got) != string(seq) {
			t.Fatalf("trace at %d shards diverges from sequential:\n%s\nvs\n%s", shards, got, seq)
		}
	}
}

// TestShardedParkWakeHammer is the -race stress for the park/wake and
// publish/drain paths: a ring of shards, every shard both sending and
// receiving, with mixed periods so parks and wakes interleave heavily.
func TestShardedParkWakeHammer(t *testing.T) {
	shards := 4
	msgs := 400
	if testing.Short() {
		msgs = 120
	}
	rng := rand.New(rand.NewSource(7))
	sk := NewShardedKernel(shards)
	var delivered atomic.Int64
	for i := 0; i < shards; i++ {
		src, dst := i, (i+1)%shards
		ring := NewTimedRing[int64](4) // tiny ring: force stall/wake traffic
		delay := Time(1 + rng.Int63n(4))
		l := sk.Connect(src, dst, delay)
		sk.RegisterDrain(dst, func(k *Kernel) int64 {
			var n int64
			for {
				m, ok := ring.TryPop()
				if !ok {
					break
				}
				k.At(m.At, func() { delivered.Add(1) })
				n++
			}
			l.NotifyDrained(n)
			return n
		})
		period := Time(1 + rng.Int63n(7))
		sk.Shard(src).Spawn(fmt.Sprintf("gen%d", i), 0, func(p *Proc) {
			for j := 0; j < msgs; j++ {
				p.Delay(period)
				for !ring.TryPush(Stamped[int64]{At: p.Now() + delay, V: int64(j)}) {
					l.StallWake()
				}
				l.NotifySent()
			}
		})
	}
	sk.Run(0)
	sk.Shutdown()
	if got := delivered.Load(); got != int64(shards*msgs) {
		t.Fatalf("delivered %d messages, want %d", got, shards*msgs)
	}
}

func BenchmarkShardDispatch(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			timers := 256
			periods := []Time{1, 2, 3, 5, 8, 40, 130, 1000, 9000, 100000}
			sk := NewShardedKernel(shards)
			remaining := make([]int, shards)
			ticks := make([]func(), timers)
			for t := 0; t < timers; t++ {
				t := t
				sh := t % shards
				k := sk.Shard(sh)
				per := periods[t%len(periods)]
				ticks[t] = func() {
					if remaining[sh] > 0 {
						remaining[sh]--
						k.After(per, ticks[t])
					}
				}
			}
			arm := func(count int) {
				for sh := range remaining {
					remaining[sh] = count/shards - timers/shards
				}
				for t := 0; t < timers; t++ {
					sk.Shard(t%shards).After(periods[t%len(periods)], ticks[t])
				}
				sk.Run(0)
			}
			arm(10 * timers)
			b.ReportAllocs()
			b.ResetTimer()
			arm(b.N + 10*timers)
		})
	}
}
