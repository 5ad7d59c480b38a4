package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// SketchEntry is one recorded sketch point: the identity of the thread
// that performed the k-th sketch-kind operation, the operation kind and
// the object it touched. This triple is what the replayer enforces.
type SketchEntry struct {
	TID  TID
	Kind Kind
	Obj  uint64
}

// String renders the entry for diagnostics.
func (e SketchEntry) String() string {
	return fmt.Sprintf("t%d %s obj=%#x", e.TID, e.Kind, e.Obj)
}

// EntryOf projects an event onto its sketch entry.
func EntryOf(ev Event) SketchEntry {
	return SketchEntry{TID: ev.TID, Kind: ev.Kind, Obj: ev.Obj}
}

// SketchLog is the ordered sequence of sketch points recorded during a
// production run, plus bookkeeping used by the overhead experiments.
type SketchLog struct {
	Scheme  string        // recording scheme name, e.g. "SYNC"
	Entries []SketchEntry // global order of sketch points
	// TotalOps is the total number of instrumentation points the
	// execution performed (recorded or not); Entries/TotalOps is the
	// sketch density.
	TotalOps uint64
	// Records is the number of log records the entries represent: equal
	// to len(Entries) except for RW sketches, whose basic-block entries
	// are run-length encodings of every private access in the block.
	Records uint64
}

// Append records one sketch point.
func (l *SketchLog) Append(ev Event) {
	l.Entries = append(l.Entries, EntryOf(ev))
}

// Len returns the number of recorded sketch points.
func (l *SketchLog) Len() int { return len(l.Entries) }

// InputRecord captures one non-deterministic input consumed from the
// virtual syscall layer (file read, socket receive, clock sample, rng
// draw). Inputs are recorded under every scheme, including BASE.
type InputRecord struct {
	TID  TID
	Call uint64 // vsys call code
	Data []byte // the bytes/value the call returned
}

// InputLog is the ordered per-execution input record.
type InputLog struct {
	Records []InputRecord
}

// Append adds one input record.
func (l *InputLog) Append(r InputRecord) { l.Records = append(l.Records, r) }

// Len returns the number of records.
func (l *InputLog) Len() int { return len(l.Records) }

// FullOrder is a captured total grant order: the thread id scheduled at
// every instrumentation point. Replaying it verbatim reproduces the
// execution deterministically — this is what PRES captures after the
// first successful replay so the bug then reproduces every time.
type FullOrder struct {
	Order []TID
}

// Len returns the number of scheduling decisions captured.
func (f *FullOrder) Len() int { return len(f.Order) }

// Log format magic bytes and versions. Version 1 is the original
// entry-per-varint-triple layout; version 2 (the only version the
// encoders write) run-length encodes same-thread runs and delta-codes
// objects against a small MRU dictionary (see INTERNALS.md, "wire
// format v2"). Decoders accept both, so v1 recordings never orphan;
// the checked-in testdata/*_v1.bin fixtures pin v1 decoding.
const (
	magicSketch = "PRSK"
	magicInput  = "PRIN"
	magicFull   = "PRFO"
	logVersion1 = 1
	logVersion2 = 2
)

// ErrBadFormat reports a corrupt or foreign log file.
var ErrBadFormat = errors.New("trace: bad log format")

// Decoder sanity limits: declared sizes beyond these are rejected
// rather than allocated, so corrupt or hostile files cannot exhaust
// memory. Real logs sit orders of magnitude below every limit.
const (
	maxDecodeEntries   = 1 << 26 // sketch entries / schedule decisions
	maxDecodeRecords   = 1 << 24 // input records
	maxInputRecordSize = 1 << 24 // bytes per input record
)

// The v2 op byte packs the entry kind into its low 5 bits; this array
// fails to compile if kinds ever outgrow them (bump the wire version
// when that happens).
var _ [32 - NumKinds]struct{}

// v2 op-byte object modes (high 3 bits): how the entry's object is
// recovered from the decoder's MRU state.
const (
	objSame  = 0 // obj == mru[0] (previous entry's object)
	objMRU1  = 1 // obj == mru[1]
	objMRU2  = 2 // obj == mru[2]
	objMRU3  = 3 // obj == mru[3]
	objMRU4  = 4 // obj == mru[4]
	objDelta = 5 // zigzag varint delta from mru[0] follows
	objAbs   = 6 // absolute varint object follows
	// 7 is reserved; decoders reject it.
)

// objMRU is the move-to-front dictionary of recently seen objects that
// the v2 sketch codec keeps on both sides of the wire. Real sketches
// touch a small working set of objects (a lock and its data, the
// current basic block's neighbours), so most entries resolve to a slot
// index and cost zero object bytes.
type objMRU [5]uint64

// hit returns the slot holding obj, or -1.
func (m *objMRU) hit(obj uint64) int {
	for i, v := range m {
		if v == obj {
			return i
		}
	}
	return -1
}

// push moves obj to the front, evicting the oldest slot on a miss.
func (m *objMRU) push(obj uint64, slot int) {
	if slot == 0 {
		return
	}
	if slot < 0 {
		slot = len(m) - 1
	}
	copy(m[1:slot+1], m[:slot])
	m[0] = obj
}

// zigzag maps a signed delta onto an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendSketch appends l to dst in the current (v2) compact binary
// format and returns the extended slice: entries are grouped into
// same-thread runs (thread ids zigzag-delta coded between runs), each
// entry is one op byte packing its kind with an object mode, and
// objects resolve against a 5-slot MRU dictionary — repeats cost
// nothing, near misses a short delta. SYNC/SYS sketches of real runs
// compress to ~1.5 bytes per entry.
func AppendSketch(dst []byte, l *SketchLog) []byte {
	dst = append(dst, magicSketch...)
	dst = binary.AppendUvarint(dst, logVersion2)
	dst = binary.AppendUvarint(dst, uint64(len(l.Scheme)))
	dst = append(dst, l.Scheme...)
	dst = binary.AppendUvarint(dst, l.TotalOps)
	dst = binary.AppendUvarint(dst, l.Records)
	dst = binary.AppendUvarint(dst, uint64(len(l.Entries)))
	var mru objMRU
	prevTID := TID(0)
	for i := 0; i < len(l.Entries); {
		j := i
		for j < len(l.Entries) && l.Entries[j].TID == l.Entries[i].TID {
			j++
		}
		dst = binary.AppendUvarint(dst, zigzag(int64(l.Entries[i].TID)-int64(prevTID)))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		prevTID = l.Entries[i].TID
		for _, e := range l.Entries[i:j] {
			slot := mru.hit(e.Obj)
			switch {
			case slot >= 0:
				dst = append(dst, byte(e.Kind)|byte(slot)<<5)
			default:
				delta := zigzag(int64(e.Obj) - int64(mru[0]))
				if uvarintLen(delta) <= uvarintLen(e.Obj) {
					dst = append(dst, byte(e.Kind)|objDelta<<5)
					dst = binary.AppendUvarint(dst, delta)
				} else {
					dst = append(dst, byte(e.Kind)|objAbs<<5)
					dst = binary.AppendUvarint(dst, e.Obj)
				}
			}
			mru.push(e.Obj, slot)
		}
		i = j
	}
	return dst
}

// DecodeSketch reads a sketch log in either wire version.
func DecodeSketch(r io.Reader) (*SketchLog, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, magicSketch); err != nil {
		return nil, err
	}
	version, err := readVersion(br)
	if err != nil {
		return nil, err
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<10 {
		return nil, fmt.Errorf("%w: scheme name length %d", ErrBadFormat, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	totalOps, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	records, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeEntries {
		return nil, fmt.Errorf("%w: %d entries exceeds sanity limit", ErrBadFormat, n)
	}
	l := &SketchLog{Scheme: string(name), TotalOps: totalOps, Records: records}
	l.Entries = make([]SketchEntry, 0, min(n, 1<<20))
	if version == logVersion1 {
		return decodeSketchEntriesV1(br, l, n)
	}
	return decodeSketchEntriesV2(br, l, n)
}

func decodeSketchEntriesV1(br *bufio.Reader, l *SketchLog, n uint64) (*SketchLog, error) {
	for i := uint64(0); i < n; i++ {
		tid, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		k := Kind(kb)
		if !k.Valid() {
			return nil, fmt.Errorf("%w: entry %d has invalid kind %d", ErrBadFormat, i, kb)
		}
		obj, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		l.Entries = append(l.Entries, SketchEntry{TID: TID(tid), Kind: k, Obj: obj})
	}
	return l, nil
}

func decodeSketchEntriesV2(br *bufio.Reader, l *SketchLog, n uint64) (*SketchLog, error) {
	var mru objMRU
	prevTID := TID(0)
	for uint64(len(l.Entries)) < n {
		tidDelta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		tid := TID(int64(prevTID) + unzigzag(tidDelta))
		prevTID = tid
		run, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if run == 0 || uint64(len(l.Entries))+run > n {
			return nil, fmt.Errorf("%w: bad sketch run length %d", ErrBadFormat, run)
		}
		for k := uint64(0); k < run; k++ {
			op, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			kind := Kind(op & 0x1f)
			if !kind.Valid() {
				return nil, fmt.Errorf("%w: entry %d has invalid kind %d", ErrBadFormat, len(l.Entries), op&0x1f)
			}
			var obj uint64
			slot := -1
			switch mode := op >> 5; mode {
			case objSame, objMRU1, objMRU2, objMRU3, objMRU4:
				slot = int(mode)
				obj = mru[slot]
			case objDelta:
				d, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				obj = uint64(int64(mru[0]) + unzigzag(d))
			case objAbs:
				if obj, err = binary.ReadUvarint(br); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("%w: entry %d has invalid object mode %d", ErrBadFormat, len(l.Entries), mode)
			}
			mru.push(obj, slot)
			l.Entries = append(l.Entries, SketchEntry{TID: tid, Kind: kind, Obj: obj})
		}
	}
	return l, nil
}

// AppendInput appends l to dst in the current (v2) format and returns
// the extended slice: thread ids and call codes are zigzag-delta coded
// between records (consecutive inputs are usually the same thread
// polling the same call), data length and bytes follow verbatim.
func AppendInput(dst []byte, l *InputLog) []byte {
	dst = append(dst, magicInput...)
	dst = binary.AppendUvarint(dst, logVersion2)
	dst = binary.AppendUvarint(dst, uint64(len(l.Records)))
	prevTID, prevCall := int64(0), uint64(0)
	for _, rec := range l.Records {
		dst = binary.AppendUvarint(dst, zigzag(int64(rec.TID)-prevTID))
		dst = binary.AppendUvarint(dst, zigzag(int64(rec.Call)-int64(prevCall)))
		dst = binary.AppendUvarint(dst, uint64(len(rec.Data)))
		dst = append(dst, rec.Data...)
		prevTID, prevCall = int64(rec.TID), rec.Call
	}
	return dst
}

// DecodeInput reads an input log in either wire version.
func DecodeInput(r io.Reader) (*InputLog, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, magicInput); err != nil {
		return nil, err
	}
	version, err := readVersion(br)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeRecords {
		return nil, fmt.Errorf("%w: %d input records exceeds sanity limit", ErrBadFormat, n)
	}
	l := &InputLog{Records: make([]InputRecord, 0, min(n, 1<<20))}
	prevTID, prevCall := int64(0), int64(0)
	for i := uint64(0); i < n; i++ {
		var tid TID
		var call uint64
		if version == logVersion1 {
			t, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			c, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			tid, call = TID(t), c
		} else {
			td, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			cd, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			prevTID += unzigzag(td)
			prevCall += unzigzag(cd)
			tid, call = TID(prevTID), uint64(prevCall)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if size > maxInputRecordSize {
			return nil, fmt.Errorf("%w: input record %d size %d", ErrBadFormat, i, size)
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, err
		}
		l.Records = append(l.Records, InputRecord{TID: tid, Call: call, Data: data})
	}
	return l, nil
}

// AppendFullOrder appends f to dst in the current (v2) format and
// returns the extended slice. Consecutive grants to the same thread are
// run-length encoded — real schedules have long same-thread runs
// between context switches — and the run thread ids are zigzag-delta
// coded against the previous run's.
func AppendFullOrder(dst []byte, f *FullOrder) []byte {
	dst = append(dst, magicFull...)
	dst = binary.AppendUvarint(dst, logVersion2)
	dst = binary.AppendUvarint(dst, uint64(len(f.Order)))
	prevTID := TID(0)
	for i := 0; i < len(f.Order); {
		j := i
		for j < len(f.Order) && f.Order[j] == f.Order[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, zigzag(int64(f.Order[i])-int64(prevTID)))
		prevTID = f.Order[i]
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

// DecodeFullOrder reads a full-order trace in either wire version.
func DecodeFullOrder(r io.Reader) (*FullOrder, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, magicFull); err != nil {
		return nil, err
	}
	version, err := readVersion(br)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeEntries {
		return nil, fmt.Errorf("%w: %d schedule decisions exceeds sanity limit", ErrBadFormat, n)
	}
	f := &FullOrder{}
	if n > 0 {
		// Leave Order nil for empty traces so round-trips are exact
		// (DeepEqual distinguishes nil from empty).
		f.Order = make([]TID, 0, min(n, 1<<24))
	}
	prevTID := TID(0)
	for uint64(len(f.Order)) < n {
		raw, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		var tid TID
		if version == logVersion1 {
			tid = TID(raw)
		} else {
			tid = TID(int64(prevTID) + unzigzag(raw))
			prevTID = tid
		}
		run, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if run == 0 || uint64(len(f.Order))+run > n {
			return nil, fmt.Errorf("%w: bad run length %d", ErrBadFormat, run)
		}
		// Extend once per run, not once per decision: captured orders
		// reach millions of decisions and per-element appends would
		// regrow the slice all the way up.
		start := len(f.Order)
		f.Order = slices.Grow(f.Order, int(run))[:start+int(run)]
		for k := range f.Order[start:] {
			f.Order[start+k] = tid
		}
	}
	return f, nil
}

func expectMagic(br *bufio.Reader, magic string) error {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(got) != magic {
		return fmt.Errorf("%w: magic %q, want %q", ErrBadFormat, got, magic)
	}
	return nil
}

// readVersion reads and validates the format version byte; both wire
// versions are accepted so v1 recordings never orphan.
func readVersion(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if v != logVersion1 && v != logVersion2 {
		return 0, fmt.Errorf("%w: version %d, want %d or %d", ErrBadFormat, v, logVersion1, logVersion2)
	}
	return v, nil
}
