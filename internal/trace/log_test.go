package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStrings(t *testing.T) {
	if KindLock.String() != "lock" {
		t.Fatalf("KindLock.String() = %q", KindLock.String())
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Fatalf("unknown kind should render numerically, got %q", Kind(200))
	}
}

func TestKindClassification(t *testing.T) {
	mem := []Kind{KindLoad, KindStore, KindRMW}
	for _, k := range mem {
		if !k.IsMemory() {
			t.Errorf("%v should be memory", k)
		}
	}
	if KindLoad.IsWrite() {
		t.Error("load is not a write")
	}
	if !KindStore.IsWrite() || !KindRMW.IsWrite() {
		t.Error("store/rmw are writes")
	}
	for _, k := range []Kind{KindLock, KindUnlock, KindWait, KindSignal, KindBarrier, KindSpawn, KindJoin} {
		if !k.IsSync() {
			t.Errorf("%v should be sync", k)
		}
	}
	for _, k := range []Kind{KindSyscall, KindSpawn, KindJoin} {
		if !k.IsSyscall() {
			t.Errorf("%v should be syscall-class", k)
		}
	}
	if KindLoad.IsSync() || KindBB.IsSyscall() {
		t.Error("misclassified kinds")
	}
	if KindInvalid.Valid() || !KindYield.Valid() {
		t.Error("Valid() wrong")
	}
}

func TestSketchRoundTrip(t *testing.T) {
	l := &SketchLog{Scheme: "SYNC", TotalOps: 12345, Records: 77}
	l.Append(Event{TID: 0, Kind: KindLock, Obj: 7})
	l.Append(Event{TID: 3, Kind: KindUnlock, Obj: 7})
	l.Append(Event{TID: 1, Kind: KindBarrier, Obj: 99, Arg: 2})

	got, err := DecodeSketch(bytes.NewReader(AppendSketch(nil, l)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != "SYNC" || got.TotalOps != 12345 || got.Records != 77 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Entries, l.Entries) {
		t.Fatalf("entries mismatch:\n got %v\nwant %v", got.Entries, l.Entries)
	}
}

func TestSketchRoundTripEmpty(t *testing.T) {
	got, err := DecodeSketch(bytes.NewReader(AppendSketch(nil, &SketchLog{Scheme: "BASE"})))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Scheme != "BASE" {
		t.Fatalf("got %+v", got)
	}
}

func TestInputRoundTrip(t *testing.T) {
	l := &InputLog{}
	l.Append(InputRecord{TID: 0, Call: 1, Data: []byte("hello")})
	l.Append(InputRecord{TID: 2, Call: 9, Data: nil})
	l.Append(InputRecord{TID: 1, Call: 3, Data: []byte{0, 1, 2, 255}})

	got, err := DecodeInput(bytes.NewReader(AppendInput(nil, l)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	for i := range l.Records {
		if got.Records[i].TID != l.Records[i].TID || got.Records[i].Call != l.Records[i].Call {
			t.Fatalf("record %d header mismatch", i)
		}
		if !bytes.Equal(got.Records[i].Data, l.Records[i].Data) {
			t.Fatalf("record %d data mismatch", i)
		}
	}
}

func TestFullOrderRoundTrip(t *testing.T) {
	f := &FullOrder{Order: []TID{0, 0, 0, 1, 1, 0, 2, 2, 2, 2, 1}}
	got, err := DecodeFullOrder(bytes.NewReader(AppendFullOrder(nil, f)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Order, f.Order) {
		t.Fatalf("order mismatch: got %v want %v", got.Order, f.Order)
	}
}

func TestDecodeRejectsWrongMagic(t *testing.T) {
	if _, err := DecodeSketch(bytes.NewReader(AppendInput(nil, &InputLog{}))); err == nil {
		t.Fatal("decoding an input log as a sketch should fail")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	l := &SketchLog{Scheme: "RW"}
	for i := 0; i < 10; i++ {
		l.Append(Event{TID: TID(i), Kind: KindStore, Obj: uint64(i)})
	}
	enc := AppendSketch(nil, l)
	trunc := enc[:len(enc)-3]
	if _, err := DecodeSketch(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated log should fail to decode")
	}

	// An input log cut inside its last record's payload: the header
	// declares 8 bytes and only 5 remain.
	in := &InputLog{Records: []InputRecord{
		{TID: 1, Call: 2, Data: []byte("abc")},
		{TID: 2, Call: 3, Data: []byte("payload!")},
	}}
	encIn := AppendInput(nil, in)
	got, err := DecodeInput(bytes.NewReader(encIn[:len(encIn)-3]))
	if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
		t.Fatalf("truncated input payload: log %v, err %v; want nil, io.ErrUnexpectedEOF", got, err)
	}
}

func TestDecodeRejectsInvalidKind(t *testing.T) {
	l := &SketchLog{Scheme: "X"}
	l.Append(Event{TID: 1, Kind: KindLock, Obj: 1})
	// Hand-build the v1 bytes (entry layout: tid varint, kind byte, obj
	// varint) with an out-of-range kind byte.
	var buf bytes.Buffer
	buf.WriteString(magicSketch)
	buf.Write([]byte{logVersion1, 1, 'X', 0, 0, 1}) // scheme "X", 1 entry
	buf.Write([]byte{1, 0xEE, 1})
	if _, err := DecodeSketch(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("invalid v1 kind should fail to decode")
	}
	// The same bytes with a valid kind decode, so the kind is what the
	// decoder rejected.
	b := buf.Bytes()
	b[len(b)-2] = byte(KindLock)
	if _, err := DecodeSketch(bytes.NewReader(b)); err != nil {
		t.Fatalf("valid v1 entry rejected: %v", err)
	}

	b = AppendSketch(nil, l)
	// v2 entry layout here: ..., op byte, obj delta varint. 0xEE has
	// object mode 7 (reserved) in its high bits.
	b[len(b)-2] = 0xEE
	if _, err := DecodeSketch(bytes.NewReader(b)); err == nil {
		t.Fatal("reserved v2 object mode should fail to decode")
	}
}

func TestDecodeRejectsBadV2Run(t *testing.T) {
	// Hand-build a v2 sketch whose run overshoots the declared entry
	// count; the decoder must reject it instead of over-appending.
	var buf bytes.Buffer
	buf.WriteString(magicSketch)
	buf.Write([]byte{logVersion2, 1, 'X', 0, 0, 1}) // scheme "X", 1 entry
	buf.Write([]byte{0, 2})                         // run: tid delta 0, length 2 > declared 1
	if _, err := DecodeSketch(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("overlong v2 run accepted")
	}

	buf.Reset()
	buf.WriteString(magicSketch)
	buf.Write([]byte{logVersion2, 1, 'X', 0, 0, 1})
	buf.Write([]byte{0, 0}) // zero-length run can never make progress
	if _, err := DecodeSketch(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("zero-length v2 run accepted")
	}
}

func TestPropSketchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := &SketchLog{Scheme: "SYS", TotalOps: uint64(r.Intn(100000))}
		n := r.Intn(200)
		for i := 0; i < n; i++ {
			l.Append(Event{
				TID:  TID(r.Intn(16)),
				Kind: Kind(1 + r.Intn(int(numKinds)-1)),
				Obj:  uint64(r.Int63()),
			})
		}
		got, err := DecodeSketch(bytes.NewReader(AppendSketch(nil, l)))
		if err != nil {
			return false
		}
		if len(got.Entries) != len(l.Entries) {
			return false
		}
		for i := range got.Entries {
			if got.Entries[i] != l.Entries[i] {
				return false
			}
		}
		return got.TotalOps == l.TotalOps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropFullOrderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fo := &FullOrder{}
		n := r.Intn(500)
		cur := TID(0)
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				cur = TID(r.Intn(8))
			}
			fo.Order = append(fo.Order, cur)
		}
		got, err := DecodeFullOrder(bytes.NewReader(AppendFullOrder(nil, fo)))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Order, fo.Order)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 5, TID: 2, TCount: 9, Kind: KindStore, Obj: 0x40, Arg: 7}
	s := e.String()
	for _, want := range []string{"#5", "t2/9", "store", "0x40"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
}

func TestSketchEntryString(t *testing.T) {
	e := SketchEntry{TID: 1, Kind: KindLock, Obj: 0xff}
	if s := e.String(); !strings.Contains(s, "lock") || !strings.Contains(s, "t1") {
		t.Fatalf("String() = %q", s)
	}
}
