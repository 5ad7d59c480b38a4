package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the epoch-segmented recording container: instead of one
// whole-execution sketch log, a recording is a sequence of sealed
// epochs held in a fixed-size ring, plus periodic state checkpoints.
// Epoch boundaries are the scheduler's control transfers (the
// sched.EpochObserver seam), so an epoch's
// entries are a contiguous slice of the global order and the retained
// window is simply the concatenation of the retained epochs. The ring
// is what makes always-on recording possible: old epochs are evicted
// as new ones seal, bounding memory and log bytes by the ring size
// while replay search restarts from the newest retained checkpoint.
//
// Wire layout ("PREG" payload, framed by core's "PREP" container):
//
//	"PREG" version scheme totalOps records size evicted evictedEntries
//	nEpochs { id startStep startEntry len sketchSection }...
//	nCheckpoints { epoch step sketchIndex inputIndex eventDigest
//	               worldDigest len worldBytes }...
//
// Each epoch's entries are encoded as an independent v2 sketch section
// (EncodeSketch with fresh MRU/TID state), so decoding a window never
// depends on evicted epochs' codec state.

// Epoch is one sealed segment of the global sketch order.
type Epoch struct {
	// ID numbers epochs from 0 over the whole run; eviction never
	// renumbers, so an ID is a stable name for "the K-th epoch" in
	// diagnostics and checkpoints.
	ID uint64
	// StartStep is the number of events the execution had committed
	// when the epoch opened.
	StartStep uint64
	// StartEntry is the global sketch-entry index of the epoch's first
	// entry (entries recorded before it, including evicted ones).
	StartEntry uint64
	// Entries is the epoch's slice of the global sketch order.
	Entries []SketchEntry
}

// Checkpoint is a periodic state capture at an epoch boundary: enough
// identity (step/entry/input positions plus digests) for a replayer to
// re-establish the boundary, and the serialized virtual-world snapshot.
type Checkpoint struct {
	// Epoch is the ID of the first epoch after the capture point (the
	// checkpoint sits exactly between epoch Epoch-1 and epoch Epoch).
	Epoch uint64
	// Step is the number of committed events at capture.
	Step uint64
	// SketchIndex is the global sketch-entry count at capture.
	SketchIndex uint64
	// InputIndex is the input-record count at capture.
	InputIndex uint64
	// EventDigest is the running digest of every committed event up to
	// Step (Digest.Entry over each event's sketch projection); replay
	// validates its re-executed prefix against it.
	EventDigest uint64
	// WorldDigest is the virtual syscall world's state digest at
	// capture; World is its serialized snapshot (vsys.World.Snapshot).
	WorldDigest uint64
	World       []byte
}

// EpochRing is the bounded container of sealed epochs. Size is the
// capacity in epochs (0 = unbounded); appending past capacity evicts
// the oldest epoch and drops checkpoints older than the retained
// window. Scheme/TotalOps/Records mirror the whole run's SketchLog
// bookkeeping so a window log can be reconstructed after decode.
type EpochRing struct {
	Scheme   string
	TotalOps uint64
	Records  uint64
	// Size is the ring capacity in epochs; 0 means unbounded.
	Size int
	// Evicted counts epochs dropped from the front; EvictedEntries
	// counts the sketch entries dropped with them. The oldest retained
	// epoch's ID is always Evicted.
	Evicted        uint64
	EvictedEntries uint64
	Epochs         []Epoch
	Checkpoints    []Checkpoint
}

// NewEpochRing returns an empty ring with the given capacity in epochs
// (size <= 0 means unbounded).
func NewEpochRing(size int) *EpochRing {
	if size < 0 {
		size = 0
	}
	return &EpochRing{Size: size}
}

// Append seals one epoch into the ring, evicting from the front when
// the ring is full. Checkpoints that fall before the retained window
// are dropped — their prefix can no longer be re-established from the
// retained entries.
func (r *EpochRing) Append(e Epoch) {
	r.Epochs = append(r.Epochs, e)
	for r.Size > 0 && len(r.Epochs) > r.Size {
		old := r.Epochs[0]
		r.Evicted++
		r.EvictedEntries += uint64(len(old.Entries))
		copy(r.Epochs, r.Epochs[1:])
		r.Epochs = r.Epochs[:len(r.Epochs)-1]
	}
	for len(r.Checkpoints) > 0 && r.Checkpoints[0].Epoch < r.Evicted {
		copy(r.Checkpoints, r.Checkpoints[1:])
		r.Checkpoints = r.Checkpoints[:len(r.Checkpoints)-1]
	}
}

// AddCheckpoint records a checkpoint at the current boundary.
func (r *EpochRing) AddCheckpoint(cp Checkpoint) {
	r.Checkpoints = append(r.Checkpoints, cp)
}

// WindowLen returns the number of sketch entries currently retained.
func (r *EpochRing) WindowLen() int {
	n := 0
	for _, e := range r.Epochs {
		n += len(e.Entries)
	}
	return n
}

// Window concatenates the retained epochs' entries into one slice in
// global order — the sketch the replayer enforces.
func (r *EpochRing) Window() []SketchEntry {
	out := make([]SketchEntry, 0, r.WindowLen())
	for _, e := range r.Epochs {
		out = append(out, e.Entries...)
	}
	return out
}

// WindowLog reconstructs the SketchLog view of the retained window:
// Entries hold the window, TotalOps/Records keep the whole run's
// cumulative counts (an unbounded ring's window log is exactly the
// whole-execution log).
func (r *EpochRing) WindowLog() *SketchLog {
	return &SketchLog{
		Scheme:   r.Scheme,
		Entries:  r.Window(),
		TotalOps: r.TotalOps,
		Records:  r.Records,
	}
}

// LastCheckpoint returns the newest retained checkpoint, if any.
func (r *EpochRing) LastCheckpoint() (Checkpoint, bool) {
	if len(r.Checkpoints) == 0 {
		return Checkpoint{}, false
	}
	return r.Checkpoints[len(r.Checkpoints)-1], true
}

// Segmented reports whether the ring carries structure the classic
// whole-execution format cannot express — a bounded window or
// checkpoints. An unbounded, checkpoint-free ring's recording is
// byte-identical to the classic format (core.Recording.Write emits the
// classic layout for it).
func (r *EpochRing) Segmented() bool {
	return r.Size > 0 || r.Evicted > 0 || len(r.Checkpoints) > 0
}

// EpochContainerMagic is the 4-byte sniff tag a container recording
// starts with. The classic format can never begin with it: its first
// byte is a uvarint section length, so either that byte has the high
// bit set (not 'P') or the following bytes are the "PRSK" sketch magic.
const EpochContainerMagic = "PREP"

// magicEpochs frames the epoch payload itself (inside the container's
// length-prefixed first section).
const magicEpochs = "PREG"

// Epoch decode sanity limits (see the maxDecode* family above).
const (
	maxDecodeEpochs      = 1 << 20
	maxDecodeCheckpoints = 1 << 16
	maxWorldSnapshot     = 1 << 26
)

// EncodeEpochs writes the ring in the epoch container payload format.
func EncodeEpochs(w io.Writer, r *EpochRing) error {
	bw := getBufio(w)
	defer putBufio(bw)
	if _, err := bw.WriteString(magicEpochs); err != nil {
		return err
	}
	scratch := getScratch()
	defer putScratch(scratch)
	buf := *scratch
	buf = binary.AppendUvarint(buf, logVersion2)
	buf = binary.AppendUvarint(buf, uint64(len(r.Scheme)))
	buf = append(buf, r.Scheme...)
	buf = binary.AppendUvarint(buf, r.TotalOps)
	buf = binary.AppendUvarint(buf, r.Records)
	buf = binary.AppendUvarint(buf, uint64(r.Size))
	buf = binary.AppendUvarint(buf, r.Evicted)
	buf = binary.AppendUvarint(buf, r.EvictedEntries)
	buf = binary.AppendUvarint(buf, uint64(len(r.Epochs)))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	var section bytes.Buffer
	for _, e := range r.Epochs {
		section.Reset()
		if err := EncodeSketch(&section, &SketchLog{Entries: e.Entries}); err != nil {
			return err
		}
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, e.ID)
		buf = binary.AppendUvarint(buf, e.StartStep)
		buf = binary.AppendUvarint(buf, e.StartEntry)
		buf = binary.AppendUvarint(buf, uint64(section.Len()))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if _, err := bw.Write(section.Bytes()); err != nil {
			return err
		}
	}
	buf = buf[:0]
	buf = binary.AppendUvarint(buf, uint64(len(r.Checkpoints)))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for _, cp := range r.Checkpoints {
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, cp.Epoch)
		buf = binary.AppendUvarint(buf, cp.Step)
		buf = binary.AppendUvarint(buf, cp.SketchIndex)
		buf = binary.AppendUvarint(buf, cp.InputIndex)
		buf = binary.AppendUvarint(buf, cp.EventDigest)
		buf = binary.AppendUvarint(buf, cp.WorldDigest)
		buf = binary.AppendUvarint(buf, uint64(len(cp.World)))
		buf = append(buf, cp.World...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	*scratch = buf
	return bw.Flush()
}

// DecodeEpochs reads an epoch container payload written by EncodeEpochs.
func DecodeEpochs(r io.Reader) (*EpochRing, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, magicEpochs); err != nil {
		return nil, err
	}
	if _, err := readVersion(br); err != nil {
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
	ring := &EpochRing{Scheme: string(name)}
	fields := []*uint64{&ring.TotalOps, &ring.Records}
	for _, f := range fields {
		if *f, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if size > maxDecodeEpochs {
		return nil, fmt.Errorf("%w: ring size %d exceeds sanity limit", ErrBadFormat, size)
	}
	ring.Size = int(size)
	if ring.Evicted, err = binary.ReadUvarint(br); err != nil {
		return nil, err
	}
	if ring.EvictedEntries, err = binary.ReadUvarint(br); err != nil {
		return nil, err
	}
	nEpochs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nEpochs > maxDecodeEpochs {
		return nil, fmt.Errorf("%w: %d epochs exceeds sanity limit", ErrBadFormat, nEpochs)
	}
	if nEpochs > 0 {
		ring.Epochs = make([]Epoch, 0, min(nEpochs, 1<<12))
	}
	for i := uint64(0); i < nEpochs; i++ {
		var e Epoch
		if e.ID, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		if e.StartStep, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		if e.StartEntry, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		secLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if secLen > 1<<30 {
			return nil, fmt.Errorf("%w: epoch %d section size %d", ErrBadFormat, i, secLen)
		}
		section := make([]byte, secLen)
		if _, err := io.ReadFull(br, section); err != nil {
			return nil, err
		}
		sk, err := DecodeSketch(bytes.NewReader(section))
		if err != nil {
			return nil, err
		}
		e.Entries = sk.Entries
		ring.Epochs = append(ring.Epochs, e)
	}
	nCps, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nCps > maxDecodeCheckpoints {
		return nil, fmt.Errorf("%w: %d checkpoints exceeds sanity limit", ErrBadFormat, nCps)
	}
	if nCps > 0 {
		ring.Checkpoints = make([]Checkpoint, 0, min(nCps, 1<<10))
	}
	for i := uint64(0); i < nCps; i++ {
		var cp Checkpoint
		fields := []*uint64{&cp.Epoch, &cp.Step, &cp.SketchIndex, &cp.InputIndex, &cp.EventDigest, &cp.WorldDigest}
		for _, f := range fields {
			if *f, err = binary.ReadUvarint(br); err != nil {
				return nil, err
			}
		}
		wLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if wLen > maxWorldSnapshot {
			return nil, fmt.Errorf("%w: checkpoint %d world size %d", ErrBadFormat, i, wLen)
		}
		cp.World = make([]byte, wLen)
		if _, err := io.ReadFull(br, cp.World); err != nil {
			return nil, err
		}
		ring.Checkpoints = append(ring.Checkpoints, cp)
	}
	return ring, nil
}
