package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Native fuzz targets; without -fuzz they run their seed corpora as
// regression tests. The invariant for every decoder: arbitrary bytes
// produce an error or a log, never a panic or runaway allocation.

func validSketchBytes() []byte {
	l := &SketchLog{Scheme: "SYNC", TotalOps: 40, Records: 4}
	l.Append(Event{TID: 1, Kind: KindLock, Obj: 0xAA})
	l.Append(Event{TID: 2, Kind: KindUnlock, Obj: 0xAA})
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, l); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// v1Fixture returns a checked-in v1 golden file: nothing encodes v1
// any more, so the fixtures are the only source of v1 bytes.
func v1Fixture(name string) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		panic(err)
	}
	return b
}

func validSketchBytesV1() []byte { return v1Fixture("sketch_v1.bin") }

func FuzzDecodeSketch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PRSK"))
	f.Add(validSketchBytes())
	f.Add(validSketchBytesV1())
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeSketch(bytes.NewReader(b))
		if err == nil && l == nil {
			t.Fatal("nil log with nil error")
		}
	})
}

// FuzzSketchRoundTrip drives the sketch codec from raw bytes: the
// input is interpreted as a stream of entries (3 bytes each: tid, kind
// selector, object selector), and the encoding must round-trip to the
// exact same log. Object selectors deliberately
// revisit a small set of values so the fuzzer exercises every MRU
// mode, not just absolute encoding.
func FuzzSketchRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 3, 3, 200, 3, 4, 200, 0, 1, 9})
	f.Add(bytes.Repeat([]byte{5, 7, 11, 5, 7, 12}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := &SketchLog{Scheme: "FUZZ", TotalOps: uint64(len(data)), Records: uint64(len(data) / 3)}
		objs := [8]uint64{0, 1, 0x40, 0x48, 1 << 16, 1<<16 + 8, 1 << 50, ^uint64(0)}
		for i := 0; i+2 < len(data); i += 3 {
			l.Append(Event{
				TID:  TID(data[i] & 15),
				Kind: Kind(1 + data[i+1]%byte(numKinds-1)),
				Obj:  objs[data[i+2]&7] + uint64(data[i+2]>>3),
			})
		}
		var buf bytes.Buffer
		if err := EncodeSketch(&buf, l); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeSketch(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Scheme != l.Scheme || got.TotalOps != l.TotalOps ||
			got.Records != l.Records || !slices.Equal(got.Entries, l.Entries) {
			t.Fatalf("round trip mismatch: got %d entries, want %d", got.Len(), l.Len())
		}
	})
}

func FuzzDecodeInput(f *testing.F) {
	var buf bytes.Buffer
	il := &InputLog{}
	il.Append(InputRecord{TID: 1, Call: 2, Data: []byte{1, 2, 3}})
	_ = EncodeInput(&buf, il)
	f.Add([]byte{})
	f.Add(buf.Bytes())
	f.Add(v1Fixture("input_v1.bin"))
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeInput(bytes.NewReader(b))
		if err == nil && l == nil {
			t.Fatal("nil log with nil error")
		}
	})
}

func FuzzDecodeFullOrder(f *testing.F) {
	var buf bytes.Buffer
	_ = EncodeFullOrder(&buf, &FullOrder{Order: []TID{0, 0, 1}})
	f.Add([]byte{})
	f.Add(buf.Bytes())
	f.Add(v1Fixture("fullorder_v1.bin"))
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeFullOrder(bytes.NewReader(b))
		if err == nil && l == nil {
			t.Fatal("nil order with nil error")
		}
	})
}
