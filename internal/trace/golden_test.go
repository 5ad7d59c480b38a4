package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format fixtures")

// The golden fixtures freeze both wire formats: v1 files must decode
// forever (recordings in the field never orphan), and the current
// encoders must keep producing byte-identical output for the same log
// (any drift is a silent format change and needs a version bump).
// Nothing writes v1 any more, so the v1 fixtures are decode-only and
// -update never touches them.
//
// Regenerate the v2 fixtures deliberately with:
// go test ./internal/trace -run Golden -update

func goldenSketch() *SketchLog {
	l := &SketchLog{Scheme: "SYNC", TotalOps: 9001, Records: 12}
	// Walk every v2 object mode: absolute, delta, mru[0] repeat, deep
	// MRU hits, and a same-thread run long enough to RLE.
	for _, e := range []SketchEntry{
		{TID: 0, Kind: KindLock, Obj: 0x1000},   // abs (cold dictionary)
		{TID: 0, Kind: KindUnlock, Obj: 0x1000}, // mru[0]
		{TID: 0, Kind: KindLock, Obj: 0x1008},   // short delta
		{TID: 2, Kind: KindLock, Obj: 0x1000},   // mru[1] after new run
		{TID: 2, Kind: KindSignal, Obj: 7},      // abs beats huge delta? delta from 0x1000, abs=7 smaller
		{TID: 2, Kind: KindWait, Obj: 0x1008},   // deep mru hit
		{TID: 1, Kind: KindBarrier, Obj: 99},
		{TID: 1, Kind: KindBarrier, Obj: 99},
		{TID: 1, Kind: KindSyscall, Obj: 0},
		{TID: 0, Kind: KindStore, Obj: 1 << 40}, // wide absolute object
	} {
		l.Entries = append(l.Entries, e)
	}
	return l
}

func goldenInput() *InputLog {
	l := &InputLog{}
	l.Append(InputRecord{TID: 0, Call: 3, Data: []byte("clock")})
	l.Append(InputRecord{TID: 0, Call: 3, Data: []byte{0xff, 0x00}})
	// Empty (not nil) data: the decoders materialize a zero-length
	// slice, and DeepEqual distinguishes the two.
	l.Append(InputRecord{TID: 5, Call: 1, Data: []byte{}})
	l.Append(InputRecord{TID: 2, Call: 9, Data: []byte("recv")})
	return l
}

func goldenFullOrder() *FullOrder {
	return &FullOrder{Order: []TID{0, 0, 0, 0, 2, 2, 1, 0, 0, 3, 3, 3, 3, 3, 1}}
}

func TestGoldenWireFormats(t *testing.T) {
	cases := []struct {
		file   string
		encode func() []byte // nil: decode-only (v1)
		decode func(*bytes.Buffer) (any, error)
		want   any
	}{
		{"sketch_v1.bin", nil,
			func(b *bytes.Buffer) (any, error) { return DecodeSketch(b) },
			goldenSketch()},
		{"sketch_v2.bin",
			func() []byte { return AppendSketch(nil, goldenSketch()) },
			func(b *bytes.Buffer) (any, error) { return DecodeSketch(b) },
			goldenSketch()},
		{"input_v1.bin", nil,
			func(b *bytes.Buffer) (any, error) { return DecodeInput(b) },
			goldenInput()},
		{"input_v2.bin",
			func() []byte { return AppendInput(nil, goldenInput()) },
			func(b *bytes.Buffer) (any, error) { return DecodeInput(b) },
			goldenInput()},
		{"fullorder_v1.bin", nil,
			func(b *bytes.Buffer) (any, error) { return DecodeFullOrder(b) },
			goldenFullOrder()},
		{"fullorder_v2.bin",
			func() []byte { return AppendFullOrder(nil, goldenFullOrder()) },
			func(b *bytes.Buffer) (any, error) { return DecodeFullOrder(b) },
			goldenFullOrder()},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			var enc []byte
			if tc.encode != nil {
				enc = tc.encode()
				if *updateGolden {
					if err := os.WriteFile(path, enc, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			fixture, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			// Encoder stability: today's encoder must reproduce the
			// frozen bytes exactly.
			if tc.encode != nil && !bytes.Equal(enc, fixture) {
				t.Fatalf("encoder output drifted from fixture %s (%d vs %d bytes)", tc.file, len(enc), len(fixture))
			}
			// Decoder compatibility: the frozen bytes must decode to the
			// canonical log.
			got, err := tc.decode(bytes.NewBuffer(fixture))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded fixture mismatch:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestGoldenV2Smaller pins the headline property of the v2 sketch
// format on the fixture itself.
func TestGoldenV2Smaller(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "sketch_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	v2 := AppendSketch(nil, goldenSketch())
	if len(v2) >= len(v1) {
		t.Fatalf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(v2), len(v1))
	}
}
