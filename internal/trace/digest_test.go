package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// Digest's values are part of the recording format (every checkpoint
// stores an event and a world digest), and record and replay share the
// implementation, so a round trip cannot catch a change to them. These
// tests compare Digest against a byte-at-a-time FNV-1a over the
// little-endian byte stream each method is defined to hash.

// refFNV is the reference: FNV-1a 64 over b, one byte at a time,
// continuing from state h.
func refFNV(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// The byte streams each Digest method hashes: a word is its eight
// little-endian bytes, and a string or byte slice is its length as a
// word followed by its bytes.
func wordBytes(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func entryBytes(b []byte, e SketchEntry) []byte {
	b = wordBytes(b, uint64(uint32(e.TID)))
	b = wordBytes(b, uint64(e.Kind))
	return wordBytes(b, e.Obj)
}

func inputBytes(b []byte, r InputRecord) []byte {
	b = wordBytes(b, uint64(uint32(r.TID)))
	b = wordBytes(b, r.Call)
	b = wordBytes(b, uint64(len(r.Data)))
	return append(b, r.Data...)
}

// digestWords is every edge of Word's zero-byte folding: 0, each
// 1<<(8k) and 1<<(8k)-1, the first full word 1<<56, MaxUint64, and
// words with interior zero bytes; then seeded random values of every
// significant-byte width.
func digestWords() []uint64 {
	ws := []uint64{0, 1 << 56, math.MaxUint64, 0x0100000000000001, 0x00ff00ff00ff00ff, 0xff00000000000000}
	for k := 0; k < 8; k++ {
		ws = append(ws, 1<<(8*k), 1<<(8*k)-1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ws = append(ws, rng.Uint64()>>(8*rng.Intn(9)))
	}
	return ws
}

func TestRefFNVIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "foobar", "\x00\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got := refFNV(fnvOffset64, []byte(s)); got != h.Sum64() {
			t.Fatalf("refFNV(%q) = %016x, hash/fnv says %016x", s, got, h.Sum64())
		}
	}
}

func TestDigestMatchesByteFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	randBytes := func() []byte {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		return b
	}
	ws := digestWords()
	for i, v := range ws {
		check := func(what string, d *Digest, stream []byte) {
			t.Helper()
			if want := refFNV(fnvOffset64, stream); d.Sum() != want {
				t.Fatalf("%s of %#x: %016x, byte-at-a-time FNV-1a %016x", what, v, d.Sum(), want)
			}
		}
		d := NewDigest()
		d.Word(v)
		check("Word", d, wordBytes(nil, v))

		d = NewDigest()
		d.Int(int64(v))
		check("Int", d, wordBytes(nil, v))

		b := randBytes()
		d = NewDigest()
		d.Bytes(b)
		check("Bytes", d, append(wordBytes(nil, uint64(len(b))), b...))

		d = NewDigest()
		d.String(string(b))
		check("String", d, append(wordBytes(nil, uint64(len(b))), b...))

		e := SketchEntry{TID: TID(int32(v)), Kind: Kind(v >> 32), Obj: ws[(i+1)%len(ws)]}
		d = NewDigest()
		d.Entry(e)
		check("Entry", d, entryBytes(nil, e))

		r := InputRecord{TID: TID(int32(v >> 16)), Call: v, Data: randBytes()}
		d = NewDigest()
		d.Input(r)
		check("Input", d, inputBytes(nil, r))
	}

	// One digest folding every value in turn: each method continues
	// from whatever state the previous ones left.
	d, stream := NewDigest(), []byte(nil)
	for i, v := range ws {
		e := SketchEntry{TID: TID(i % 5), Kind: Kind(i % 23), Obj: v}
		d.Entry(e)
		stream = entryBytes(stream, e)
		d.Word(v)
		stream = wordBytes(stream, v)
	}
	if want := refFNV(fnvOffset64, stream); d.Sum() != want {
		t.Fatalf("running digest %016x, byte-at-a-time FNV-1a %016x", d.Sum(), want)
	}
}

// BenchmarkDigestEntry folds one sketch entry per op, as the epoch
// recorder does for every committed event: a small TID and Kind and a
// hashed 64-bit object address.
func BenchmarkDigestEntry(b *testing.B) {
	var es [64]SketchEntry
	rng := rand.New(rand.NewSource(3))
	for i := range es {
		es[i] = SketchEntry{TID: TID(rng.Intn(8)), Kind: Kind(rng.Intn(20)), Obj: rng.Uint64() | 1<<63}
	}
	d := NewDigest()
	for i := 0; i < b.N; i++ {
		d.Entry(es[i%len(es)])
	}
	if d.Sum() == 0 {
		b.Fatal("zero digest")
	}
}
