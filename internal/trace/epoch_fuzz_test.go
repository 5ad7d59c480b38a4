package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzEpochRingRoundTrip drives the epoch container codec from raw
// bytes: the input is split into epochs of fuzz-chosen lengths whose
// entries are synthesized exactly as FuzzSketchRoundTrip does, sealed
// into a ring of fuzz-chosen capacity with periodic checkpoints, and
// the encode/decode round trip must reproduce the ring exactly —
// including eviction counters and checkpoint retention. The existing
// trace testdata recordings seed the corpus so real v1/v2 entry
// patterns (long same-thread runs, MRU-friendly objects) are exercised
// from the first run.
func FuzzEpochRingRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add(bytes.Repeat([]byte{5, 7, 11, 5, 7, 12}, 40), uint8(3))
	for _, name := range []string{"sketch_v1.bin", "sketch_v2.bin", "input_v2.bin"} {
		if b, err := os.ReadFile("testdata/" + name); err == nil {
			f.Add(b, uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		ring := NewEpochRing(int(size % 8))
		ring.Scheme, ring.TotalOps, ring.Records = "FUZZ", uint64(len(data)), uint64(len(data)/3)
		objs := [8]uint64{0, 1, 0x40, 0x48, 1 << 16, 1<<16 + 8, 1 << 50, ^uint64(0)}
		var cur []SketchEntry
		id, startEntry, step := uint64(0), uint64(0), uint64(0)
		seal := func() {
			if cur == nil {
				cur = []SketchEntry{} // decoders return non-nil empty slices
			}
			ring.Append(Epoch{ID: id, StartStep: step, StartEntry: startEntry, Entries: cur})
			id++
			startEntry += uint64(len(cur))
			step += uint64(len(cur)) * 2
			if id%2 == 0 {
				cp := Checkpoint{
					Epoch: id, Step: step, SketchIndex: startEntry,
					EventDigest: step * 3, WorldDigest: step * 5,
				}
				// Every other checkpoint carries a world blob, as
				// recordings written before digest-only checkpoints do;
				// an empty one decodes as nil.
				if blob := data[:min(len(data), 16)]; id%4 == 0 && len(blob) > 0 {
					cp.World = append([]byte{}, blob...)
				}
				ring.AddCheckpoint(cp)
			}
			cur = nil
		}
		for i := 0; i+2 < len(data); i += 3 {
			cur = append(cur, SketchEntry{
				TID:  TID(data[i] & 15),
				Kind: Kind(1 + data[i+1]%byte(numKinds-1)),
				Obj:  objs[data[i+2]&7] + uint64(data[i+2]>>3),
			})
			if len(cur) >= 1+int(data[i]&7) {
				seal()
			}
		}
		seal()
		if len(ring.Checkpoints) == 0 {
			ring.Checkpoints = nil // canonical empty form, as the decoder returns
		}

		got, err := DecodeEpochs(bytes.NewReader(AppendEpochs(nil, ring)))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, ring) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ring)
		}
	})
}

// FuzzDecodeEpochs pins the decoder's arbitrary-input invariant: error
// or ring, never a panic or runaway allocation.
func FuzzDecodeEpochs(f *testing.F) {
	r := NewEpochRing(2)
	r.Scheme = "SYNC"
	r.Append(Epoch{ID: 0, Entries: mkEntries(1, 5, 3)})
	r.AddCheckpoint(Checkpoint{Epoch: 1, Step: 3, World: []byte{9}})
	f.Add([]byte{})
	f.Add([]byte(magicEpochs))
	f.Add(AppendEpochs(nil, r))
	f.Fuzz(func(t *testing.T, b []byte) {
		ring, err := DecodeEpochs(bytes.NewReader(b))
		if err == nil && ring == nil {
			t.Fatal("nil ring with nil error")
		}
	})
}
