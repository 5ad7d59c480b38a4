package race

import (
	"unsafe"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Detector cloning. The replayer's prefix-snapshot path (internal/core
// snapshot.go) captures a detector mid-execution so a child attempt
// restored from that snapshot resumes detection at the boundary instead
// of re-observing the whole prefix. A clone must be fully independent:
// vclock.VC values mutate in place on Tick/Join when no growth is
// needed, and appendBounded shifts its slice's backing array, so both
// get fresh storage here. The per-access clocks stored inside
// accessRec values are the one thing safely shared — checkAccess stores
// a private Clone at insert time and nothing mutates it afterwards.

// Clone returns a deep, independent copy of the detector's state.
// Feeding the original and the clone identical event suffixes yields
// identical pair sets; events fed to one never affect the other.
func (d *Detector) Clone() *Detector {
	c := &Detector{
		threads: cloneVCMapTID(d.threads),
		objects: cloneVCMapObj(d.objects),
		born:    cloneVCMapTID(d.born),
		exited:  cloneVCMapTID(d.exited),
		writes:  cloneHistory(d.writes),
		reads:   cloneHistory(d.reads),
		pairs:   append([]Pair(nil), d.pairs...),
		seen:    make(map[PairKey]bool, len(d.seen)),
	}
	for k := range d.seen {
		c.seen[k] = true
	}
	return c
}

// Footprint estimates the detector's retained bytes — the snapshot
// cache's accounting currency. It is a model, not a measurement: map
// and slice headers are charged at a flat overhead and clocks at
// 8 bytes per component.
func (d *Detector) Footprint() int64 {
	n := int64(256)
	for _, vc := range d.threads {
		n += mapSlot + 8*int64(len(vc))
	}
	for _, vc := range d.objects {
		n += mapSlot + 8*int64(len(vc))
	}
	for _, vc := range d.born {
		n += mapSlot + 8*int64(len(vc))
	}
	for _, vc := range d.exited {
		n += mapSlot + 8*int64(len(vc))
	}
	n += historyFootprint(d.writes)
	n += historyFootprint(d.reads)
	n += int64(len(d.pairs)) * recBytes
	n += int64(len(d.seen)) * (mapSlot + pairKeyBytes)
	return n
}

// mapSlot and recBytes are the flat per-entry overheads Footprint
// charges for map slots and access records; pairKeyBytes is a dedup
// key's fixed size.
const (
	mapSlot      = 48
	recBytes     = 64
	pairKeyBytes = int64(unsafe.Sizeof(PairKey{}))
)

func cloneVCMapTID(m map[trace.TID]vclock.VC) map[trace.TID]vclock.VC {
	out := make(map[trace.TID]vclock.VC, len(m))
	for k, v := range m {
		out[k] = v.Clone()
	}
	return out
}

func cloneVCMapObj(m map[uint64]vclock.VC) map[uint64]vclock.VC {
	out := make(map[uint64]vclock.VC, len(m))
	for k, v := range m {
		out[k] = v.Clone()
	}
	return out
}

func cloneHistory(m map[uint64][]accessRec) map[uint64][]accessRec {
	out := make(map[uint64][]accessRec, len(m))
	for k, recs := range m {
		// New backing array (appendBounded shifts in place); the per-rec
		// vc values are immutable after insert and shared deliberately.
		out[k] = append(make([]accessRec, 0, len(recs)), recs...)
	}
	return out
}

func historyFootprint(m map[uint64][]accessRec) int64 {
	n := int64(0)
	for _, recs := range m {
		n += mapSlot
		for _, r := range recs {
			n += recBytes + 8*int64(len(r.vc))
		}
	}
	return n
}
