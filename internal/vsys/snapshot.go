package vsys

import (
	"encoding/binary"
	"sort"

	"repro/internal/trace"
)

// World state snapshots. A snapshot captures everything a run can have
// mutated in the virtual syscall layer — clock, random-stream position,
// file contents, queue contents and (during replay) the per-thread
// input cursors — as a self-describing byte blob, taken at a scheduler
// quiescent point (between grants, e.g. an epoch seal, where no thread
// is mid-effect). core stores one per recording checkpoint. Nothing
// ever loads a snapshot back: a replayer reaches a boundary by
// re-executing the prefix, and Digest is the check that it arrived at
// the same world.
//
// The random stream is captured as a draw count, not generator
// internals, so the blob does not depend on math/rand's unexported
// state.

// snapshot wire: "VSNP" clock draws
//
//	nFiles { name data }...  (sorted by name)
//	nQueues { name closed nMsgs { msg }... }...  (sorted by name)
//	nCursors { tid call consumed }...  (sorted; replay worlds only)
const snapMagic = "VSNP"

// Snapshot serializes the world's mutable state. Call only at a
// quiescent point (no thread between a syscall's decision and effect).
func (w *World) Snapshot() []byte {
	buf := []byte(snapMagic)
	buf = binary.AppendUvarint(buf, w.clock)
	buf = binary.AppendUvarint(buf, w.draws)

	names := make([]string, 0, len(w.fs))
	for name := range w.fs {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = appendString(buf, name)
		buf = appendBytes(buf, w.fs[name].data)
	}

	qnames := make([]string, 0, len(w.qs))
	for name := range w.qs {
		qnames = append(qnames, name)
	}
	sort.Strings(qnames)
	buf = binary.AppendUvarint(buf, uint64(len(qnames)))
	for _, name := range qnames {
		q := w.qs[name]
		buf = appendString(buf, name)
		closed := uint64(0)
		if q.closed {
			closed = 1
		}
		buf = binary.AppendUvarint(buf, closed)
		buf = binary.AppendUvarint(buf, uint64(len(q.msgs)))
		for _, m := range q.msgs {
			buf = appendBytes(buf, m)
		}
	}

	type ck struct {
		tid      trace.TID
		call     uint64
		consumed uint64
	}
	var cursors []ck
	if w.mode == Replay {
		total := map[inputKey]uint64{}
		for _, r := range w.log.Records {
			total[inputKey{r.TID, r.Call}]++
		}
		for k, remaining := range w.cursor {
			if consumed := total[k] - uint64(len(remaining)); consumed > 0 {
				cursors = append(cursors, ck{k.tid, k.call, consumed})
			}
		}
		sort.Slice(cursors, func(i, j int) bool {
			if cursors[i].tid != cursors[j].tid {
				return cursors[i].tid < cursors[j].tid
			}
			return cursors[i].call < cursors[j].call
		})
	}
	buf = binary.AppendUvarint(buf, uint64(len(cursors)))
	for _, c := range cursors {
		buf = binary.AppendUvarint(buf, uint64(uint32(c.tid)))
		buf = binary.AppendUvarint(buf, c.call)
		buf = binary.AppendUvarint(buf, c.consumed)
	}
	return buf
}

// Digest returns a 64-bit digest of the world's snapshot state, for
// cheap boundary-equality checks between a recording's checkpoint and
// a replay's re-executed prefix.
func (w *World) Digest() uint64 {
	d := trace.NewDigest()
	d.Bytes(w.Snapshot())
	return d.Sum()
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}
