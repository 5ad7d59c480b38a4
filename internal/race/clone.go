package race

import (
	"unsafe"

	"repro/internal/vclock"
)

// Detector cloning. The replayer's prefix-snapshot path (internal/core
// snapshot.go) captures a detector mid-execution so a child attempt
// restored from that snapshot resumes detection at the boundary instead
// of re-observing the whole prefix. A clone must be fully independent:
// vclock.VC values mutate in place on Tick/Join when no growth is
// needed, and each address's history rings are overwritten in place, so
// both get fresh storage here. A history holds no pointers (an access
// record is its epoch, not a clock), so copying it by value is a deep
// copy.

// Clone returns a deep, independent copy of the detector's state.
// Feeding the original and the clone identical event suffixes yields
// identical pair sets; events fed to one never affect the other.
func (d *Detector) Clone() *Detector {
	c := &Detector{
		threads: make([]vclock.VC, len(d.threads)),
		objects: cloneVCMap(d.objects),
		born:    cloneVCMap(d.born),
		exited:  cloneVCMap(d.exited),
		history: make(map[uint64]*history, len(d.history)),
		pairs:   append([]Pair(nil), d.pairs...),
	}
	for i, vc := range d.threads {
		c.threads[i] = vc.Clone()
	}
	for addr, h := range d.history {
		hc := *h
		c.history[addr] = &hc
	}
	return c
}

// Footprint estimates the detector's retained bytes — the snapshot
// cache's accounting currency. It is a model, not a measurement: map
// and slice headers are charged at a flat overhead, clocks at 8 bytes
// per component and each address's history at its fixed size.
func (d *Detector) Footprint() int64 {
	n := int64(256) + mapFootprint(d.objects) + mapFootprint(d.born) + mapFootprint(d.exited)
	for _, vc := range d.threads {
		n += 8 * int64(len(vc))
	}
	n += int64(len(d.history)) * (mapSlot + historyBytes)
	n += int64(len(d.pairs)) * pairBytes
	return n
}

// mapSlot is the flat per-entry overhead Footprint charges for map
// slots; historyBytes and pairBytes are a history's and a pair's fixed
// sizes.
const (
	mapSlot      = 48
	historyBytes = int64(unsafe.Sizeof(history{}))
	pairBytes    = int64(unsafe.Sizeof(Pair{}))
)

func cloneVCMap[K comparable](m map[K]vclock.VC) map[K]vclock.VC {
	out := make(map[K]vclock.VC, len(m))
	for k, v := range m {
		out[k] = v.Clone()
	}
	return out
}

func mapFootprint[K comparable](m map[K]vclock.VC) int64 {
	n := int64(0)
	for _, vc := range m {
		n += mapSlot + 8*int64(len(vc))
	}
	return n
}
