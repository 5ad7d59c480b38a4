package trace

import (
	"fmt"
	"sort"
)

// This file defines the canonical identity of a directed replay
// attempt: the flip-set key (which race reversals the attempt enforces,
// order ignored) and the schedule key (flip set plus a digest of
// everything else that determines the execution — program, sketch
// prefix, inputs, replay knobs). The replayer's prefix-snapshot cache
// is keyed by these strings, so they must be injective: distinct
// attempts must never share a key, or the search would resume from the
// wrong prefix.
// FuzzFlipSetKey and FuzzScheduleCacheKey pin that property.

// FlipID names one race flip — "hold thread HoldTID's HoldCount-th
// access to Addr until thread UntilTID has executed UntilCount
// operations" — by the coordinates that determine its enforcement.
type FlipID struct {
	Addr       uint64
	HoldTID    TID
	HoldCount  uint64
	UntilTID   TID
	UntilCount uint64
}

// encode renders a FlipID as a fixed-width hex tuple. Fixed width makes
// lexicographic string order a total order on the tuples and keeps the
// encoding injective.
func (f FlipID) encode() string {
	b := make([]byte, 0, flipIDLen)
	b = appendHex(b, f.Addr, 16)
	b = append(b, '.')
	b = appendHex(b, uint64(uint32(f.HoldTID)), 8)
	b = append(b, '.')
	b = appendHex(b, f.HoldCount, 16)
	b = append(b, '.')
	b = appendHex(b, uint64(uint32(f.UntilTID)), 8)
	b = append(b, '.')
	b = appendHex(b, f.UntilCount, 16)
	return string(b)
}

// flipIDLen is the length of an encoded FlipID: three 16-digit and two
// 8-digit hex fields joined by dots.
const flipIDLen = 3*16 + 2*8 + 4

// appendHex appends the low width hex digits of v, zero-padded, in
// lower case — the bytes fmt's %0<width>x gives for a v that fits.
func appendHex(b []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	for shift := 4 * (width - 1); shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xf])
	}
	return b
}

// FlipSetKey returns the canonical key of a flip set: the same multiset
// of flips yields the same key regardless of insertion order, and
// distinct multisets always yield distinct keys (each flip encodes
// fixed-width, so sorting and joining cannot merge or split tuples).
// The empty set's key is the empty string.
func FlipSetKey(flips []FlipID) string {
	if len(flips) == 0 {
		return ""
	}
	enc := make([]string, len(flips))
	for i, f := range flips {
		enc[i] = f.encode()
	}
	sort.Strings(enc)
	n := len(enc) - 1
	for _, s := range enc {
		n += len(s)
	}
	b := make([]byte, 0, n)
	for i, s := range enc {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return string(b)
}

// ScheduleCacheKey is the full identity of one deterministic
// (unseeded) directed replay attempt:
//
//   - ctx digests the search context — program, scheme, sketch prefix,
//     input log, world seed and every replay knob that changes what an
//     attempt executes (build it with Digest);
//   - flipKey is the FlipSetKey of the enforced flips.
//
// Two attempts share a key iff they are the same execution.
func ScheduleCacheKey(ctx uint64, flipKey string) string {
	return fmt.Sprintf("%016x/%s", ctx, flipKey)
}

// Digest accumulates an FNV-1a 64-bit hash: of a search context (the
// schedule key's ctx), and of a recording's checkpoints — the event
// digest folds every committed event's sketch entry and the world
// digest the world snapshot. It is not cryptographic — it only needs to
// make unrelated states vanishingly unlikely to collide. Its values
// are part of the recording format: a checkpoint stores both digests
// and replay recomputes them, so a change to any value here breaks
// every recording written before it.
//
// Every value is FNV-1a over a byte stream: a word is its eight bytes,
// least significant first, and a string or byte slice is its length as
// a word followed by its bytes.
type Digest struct{ h uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPow[k] is fnvPrime64^k. FNV-1a mixes a zero byte by xoring in
// nothing and multiplying by the prime, so mixing one byte and then
// k-1 zero bytes is one xor and one multiplication by fnvPow[k].
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// NewDigest returns a digest in its initial state.
func NewDigest() *Digest { return &Digest{h: fnvOffset64} }

// Word mixes one 64-bit value, least significant byte first. It mixes
// bytes one at a time up to the highest non-zero one, whose
// multiplication absorbs those of the zero bytes above it (fnvPow):
// a small TID or Kind costs one multiplication, not eight, and every
// value equals the byte-at-a-time FNV-1a's.
func (d *Digest) Word(v uint64) {
	h := d.h
	k := 8
	for ; v > 0xff; v >>= 8 {
		h = (h ^ v&0xff) * fnvPrime64
		k--
	}
	d.h = (h ^ v) * fnvPow[k]
}

// Int mixes one signed value.
func (d *Digest) Int(v int64) { d.Word(uint64(v)) }

// String mixes a length-prefixed string (the prefix keeps "ab","c"
// distinct from "a","bc").
func (d *Digest) String(s string) {
	d.Word(uint64(len(s)))
	h := d.h
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	d.h = h
}

// Bytes mixes a length-prefixed byte slice.
func (d *Digest) Bytes(b []byte) {
	d.Word(uint64(len(b)))
	h := d.h
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	d.h = h
}

// Entry mixes one sketch entry.
func (d *Digest) Entry(e SketchEntry) {
	d.Word(uint64(uint32(e.TID)))
	d.Word(uint64(e.Kind))
	d.Word(e.Obj)
}

// Input mixes one input record.
func (d *Digest) Input(r InputRecord) {
	d.Word(uint64(uint32(r.TID)))
	d.Word(r.Call)
	d.Bytes(r.Data)
}

// Sum returns the accumulated hash.
func (d *Digest) Sum() uint64 { return d.h }
