package kpn

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
)

// fnvOracle is the standard library's FNV-1a, the reference Hash must
// reproduce.
func fnvOracle(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash.Hash never errors
	return h.Sum64()
}

// TestTokenHashMatchesFNV: the inlined FNV-1a loop returns hash/fnv's
// New64a value on random payloads, nil and empty ones included, both for
// plain tokens and (first and cached call) for memo tokens.
func TestTokenHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := [][]byte{nil, {}}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		payloads = append(payloads, b)
	}
	m := NewPayloadMemo()
	for i, b := range payloads {
		want := fnvOracle(b)
		if got := (Token{Payload: b}).Hash(); got != want {
			t.Fatalf("payload %d (len %d): Hash = %#x, want %#x", i, len(b), got, want)
		}
		tok := m.Token("s", int64(i), 0, func() []byte { return b })
		for call := 0; call < 2; call++ {
			if got := tok.Hash(); got != want {
				t.Fatalf("memo payload %d call %d: Hash = %#x, want %#x", i, call, got, want)
			}
		}
	}
}

// TestTokenHashIgnoresForeignPayload: a copy of a memo token whose
// Payload was replaced (as fault.Corrupt does) or resliced hashes its
// own bytes, never the entry's cached digest.
func TestTokenHashIgnoresForeignPayload(t *testing.T) {
	m := NewPayloadMemo()
	tok := m.Token("s", 1, 0, func() []byte { return []byte{1, 2, 3, 4, 5, 6} })
	golden := tok.Hash() // caches the entry's digest

	replaced := tok
	replaced.Payload = []byte{1, 2, 3, 4, 5, 7}
	if got, want := replaced.Hash(), fnvOracle(replaced.Payload); got != want || got == golden {
		t.Fatalf("replaced payload: Hash = %#x, want own digest %#x (golden %#x)", got, want, golden)
	}
	short := tok
	short.Payload = tok.Payload[:3]
	if got, want := short.Hash(), fnvOracle(short.Payload); got != want {
		t.Fatalf("resliced prefix: Hash = %#x, want %#x", got, want)
	}
	tail := tok
	tail.Payload = tok.Payload[1:]
	if got, want := tail.Hash(), fnvOracle(tail.Payload); got != want {
		t.Fatalf("resliced tail: Hash = %#x, want %#x", got, want)
	}
	if tok.Hash() != golden {
		t.Fatal("memo token digest changed")
	}
}

// TestTokenHashNoAllocs: Hash allocates nothing, cached or not.
func TestTokenHashNoAllocs(t *testing.T) {
	payload := make([]byte, 512)
	m := NewPayloadMemo()
	cached := m.Token("s", 1, 0, func() []byte { return payload })
	plain := Token{Payload: payload}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += cached.Hash() }); n != 0 {
		t.Errorf("cached Hash: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += plain.Hash() }); n != 0 {
		t.Errorf("uncached Hash: %v allocs/op, want 0", n)
	}
	_ = sink
}

// TestMemoHashConcurrent: goroutines racing to build and hash the same
// memo key settle on one entry, one payload slice and one digest. Run
// under -race.
func TestMemoHashConcurrent(t *testing.T) {
	m := NewPayloadMemo()
	const workers = 8
	want := fnvOracle(make([]byte, 1024))
	toks := make([]Token, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := int64(1); seq <= 50; seq++ {
				tok := m.Token("s", seq, 0, func() []byte { return make([]byte, 1024) })
				if got := tok.Hash(); got != want {
					t.Errorf("worker %d seq %d: Hash = %#x, want %#x", w, seq, got, want)
				}
				if seq == 50 {
					toks[w] = tok
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if toks[w].memo != toks[0].memo || &toks[w].Payload[0] != &toks[0].Payload[0] {
			t.Fatalf("worker %d holds a different entry for the same key", w)
		}
	}
}
