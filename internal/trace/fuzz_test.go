package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The decoders consume untrusted files; whatever bytes arrive, they
// must return an error or a log — never panic, never allocate absurdly.

func TestDecodeSketchRandomBytesNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, r.Intn(512))
		r.Read(b)
		// Half the time, keep a valid magic so the body parser runs.
		if r.Intn(2) == 0 && len(b) >= 4 {
			copy(b, magicSketch)
		}
		l, err := DecodeSketch(bytes.NewReader(b))
		return err != nil || l != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInputRandomBytesNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, r.Intn(512))
		r.Read(b)
		if r.Intn(2) == 0 && len(b) >= 4 {
			copy(b, magicInput)
		}
		l, err := DecodeInput(bytes.NewReader(b))
		return err != nil || l != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFullOrderRandomBytesNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, r.Intn(512))
		r.Read(b)
		if r.Intn(2) == 0 && len(b) >= 4 {
			copy(b, magicFull)
		}
		l, err := DecodeFullOrder(bytes.NewReader(b))
		return err != nil || l != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBitFlippedSketch(t *testing.T) {
	// Every single-byte corruption of a valid log must either decode to
	// something or error — never panic.
	l := &SketchLog{Scheme: "SYNC", TotalOps: 99}
	for i := 0; i < 20; i++ {
		l.Append(Event{TID: TID(i % 4), Kind: KindLock, Obj: uint64(i)})
	}
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, l); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			b := append([]byte(nil), orig...)
			b[i] ^= flip
			DecodeSketch(bytes.NewReader(b)) // must not panic
		}
	}
}

func TestDecodeHugeDeclaredLengths(t *testing.T) {
	// A log that declares a gigantic entry count but has no body must
	// fail fast without huge allocations.
	var buf bytes.Buffer
	buf.WriteString(magicSketch)
	buf.Write([]byte{logVersion2})
	buf.Write([]byte{4}) // scheme name length 4
	buf.WriteString("SYNC")
	buf.Write([]byte{0})                                  // totalOps
	buf.Write([]byte{0})                                  // records
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // entries: huge varint
	if _, err := DecodeSketch(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("huge declared length should error on truncated body")
	}
}

func TestDecodeSanityLimits(t *testing.T) {
	// A full-order file that declares 2^50 decisions in one run must be
	// rejected before any large allocation — the OOM the fuzzer found.
	var buf bytes.Buffer
	buf.WriteString(magicFull)
	buf.Write([]byte{logVersion2})
	big := make([]byte, 0, 16)
	big = appendUvarintForTest(big, 1<<50) // total decisions
	buf.Write(big)
	buf.Write([]byte{0}) // tid 0
	run := appendUvarintForTest(nil, 1<<50)
	buf.Write(run)
	if _, err := DecodeFullOrder(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("gigantic declared order accepted")
	}

	// Same for a gigantic declared input-record count.
	buf.Reset()
	buf.WriteString(magicInput)
	buf.Write([]byte{logVersion2})
	buf.Write(appendUvarintForTest(nil, 1<<40))
	if _, err := DecodeInput(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("gigantic record count accepted")
	}

	// And a gigantic single input record.
	buf.Reset()
	buf.WriteString(magicInput)
	buf.Write([]byte{logVersion2})
	buf.Write([]byte{1})    // one record
	buf.Write([]byte{0, 1}) // tid, call
	buf.Write(appendUvarintForTest(nil, 1<<29))
	if _, err := DecodeInput(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("gigantic record size accepted")
	}
}

func appendUvarintForTest(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
