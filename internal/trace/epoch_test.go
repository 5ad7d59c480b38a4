package trace

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

func mkEntries(tid TID, obj uint64, n int) []SketchEntry {
	out := make([]SketchEntry, n)
	for i := range out {
		out[i] = SketchEntry{TID: tid, Kind: KindLock, Obj: obj + uint64(i%3)}
	}
	return out
}

func TestEpochRingEviction(t *testing.T) {
	r := NewEpochRing(2)
	for i := 0; i < 5; i++ {
		r.Append(Epoch{
			ID:         uint64(i),
			StartStep:  uint64(i) * 10,
			StartEntry: uint64(i) * 4,
			Entries:    mkEntries(TID(i), 0x100, 4),
		})
		if i == 2 {
			r.AddCheckpoint(Checkpoint{Epoch: 3, Step: 30, SketchIndex: 12})
		}
	}
	if r.Evicted != 3 || r.EvictedEntries != 12 {
		t.Fatalf("evicted=%d entries=%d, want 3/12", r.Evicted, r.EvictedEntries)
	}
	if len(r.Epochs) != 2 || r.Epochs[0].ID != 3 || r.Epochs[1].ID != 4 {
		t.Fatalf("retained %v, want IDs 3,4", r.Epochs)
	}
	if r.WindowLen() != 8 || len(r.Window()) != 8 {
		t.Fatalf("window len %d, want 8", r.WindowLen())
	}
	// The checkpoint at epoch 3 sits exactly at the oldest retained
	// epoch's start, so it must survive eviction of epochs 0-2.
	if cp, ok := r.LastCheckpoint(); !ok || cp.Epoch != 3 {
		t.Fatalf("checkpoint %v ok=%v, want epoch 3", cp, ok)
	}
	// One more append evicts epoch 3 and with it the checkpoint.
	r.Append(Epoch{ID: 5, Entries: mkEntries(9, 0x200, 4)})
	if _, ok := r.LastCheckpoint(); ok {
		t.Fatal("checkpoint survived eviction of its epoch")
	}
}

func TestEpochRingUnboundedWindowEqualsWhole(t *testing.T) {
	r := NewEpochRing(0)
	var all []SketchEntry
	for i := 0; i < 4; i++ {
		e := mkEntries(TID(i), uint64(0x10*i), 3)
		all = append(all, e...)
		r.Append(Epoch{ID: uint64(i), StartEntry: uint64(3 * i), Entries: e})
	}
	if r.Evicted != 0 || !slices.Equal(r.Window(), all) {
		t.Fatalf("unbounded ring window differs from the whole log")
	}
	if r.Segmented() {
		t.Fatal("unbounded checkpoint-free ring reports Segmented")
	}
	r.AddCheckpoint(Checkpoint{Epoch: 2, Step: 20})
	if !r.Segmented() {
		t.Fatal("ring with a checkpoint must report Segmented")
	}
}

func TestEpochRoundTrip(t *testing.T) {
	r := NewEpochRing(3)
	r.Scheme, r.TotalOps, r.Records = "SYNC", 500, 24
	for i := 0; i < 5; i++ {
		r.Append(Epoch{
			ID:         uint64(i),
			StartStep:  uint64(i) * 100,
			StartEntry: uint64(i) * 4,
			Entries:    mkEntries(TID(i%3), 0xBEEF, 4),
		})
	}
	// A legacy checkpoint carrying a world blob, then a digest-only one.
	r.AddCheckpoint(Checkpoint{
		Epoch: 3, Step: 300, SketchIndex: 12, InputIndex: 5,
		EventDigest: 0xDEAD, WorldDigest: 0xF00D, World: []byte{1, 2, 3},
	})
	r.AddCheckpoint(Checkpoint{
		Epoch: 4, Step: 400, SketchIndex: 16, InputIndex: 7,
		EventDigest: 0xBEEF, WorldDigest: 0xCAFE,
	})
	got, err := DecodeEpochs(bytes.NewReader(AppendEpochs(nil, r)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestEpochDecodeRejectsCorrupt(t *testing.T) {
	r := NewEpochRing(2)
	r.Scheme = "SYNC"
	r.Append(Epoch{ID: 0, Entries: mkEntries(1, 5, 2)})
	good := AppendEpochs(nil, r)
	if _, err := DecodeEpochs(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("truncated payload decoded")
	}
	bad := append([]byte("XXXX"), good[4:]...)
	if _, err := DecodeEpochs(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic decoded")
	}
}
