// Package vsys is the virtual system-call layer: an in-memory
// filesystem, socket-like message queues, a virtual clock and a seeded
// random source. Every call is a KindSyscall scheduling point — the
// event stream the SYS sketching mechanism records.
//
// Non-deterministic inputs (clock samples, random draws) are logged into
// a trace.InputLog during recording and served back from it during
// replay, under every scheme including BASE: PRES always records inputs
// because they are cheap; only *interleaving* non-determinism is what
// the sketch schemes trade off. The serialized input log's size is part
// of the recording's log-byte accounting (pres_record_log_bytes_total
// in OBSERVABILITY.md).
package vsys

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Call codes, used as the Obj of KindSyscall events.
const (
	CallOpen uint64 = iota + 1
	CallRead
	CallWrite
	CallClose
	CallUnlink
	CallNow
	CallRand
	CallSleep
	CallSend
	CallRecv
	CallCloseQueue
)

// CallName returns a human-readable name for a call code.
func CallName(code uint64) string {
	switch code {
	case CallOpen:
		return "open"
	case CallRead:
		return "read"
	case CallWrite:
		return "write"
	case CallClose:
		return "close"
	case CallUnlink:
		return "unlink"
	case CallNow:
		return "now"
	case CallRand:
		return "rand"
	case CallSleep:
		return "sleep"
	case CallSend:
		return "send"
	case CallRecv:
		return "recv"
	case CallCloseQueue:
		return "close-queue"
	default:
		return "call(?)"
	}
}

func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Mode selects how the world treats non-deterministic inputs.
type Mode int

const (
	// Live generates inputs fresh (no logging) — used by plain tests.
	Live Mode = iota
	// Record generates inputs fresh and appends them to the input log.
	Record
	// Replay serves inputs from the log (falling back to fresh values
	// if the log runs dry, which only happens on divergent replays).
	Replay
)

type inputKey struct {
	tid  trace.TID
	call uint64
}

// World is one execution's syscall state. Create a fresh World per run.
type World struct {
	mode   Mode
	log    *trace.InputLog
	cursor map[inputKey][]int // per-(thread,call) FIFO of log indices

	clock uint64
	draws uint64 // random values drawn: the snapshot's stream position
	seed  int64
	rng   *rand.Rand // built on the first draw; nil until then
	fs    map[string]*file
	qs    map[string]*Queue

	// scratch and names are the snapshot encoding and sorted-name
	// buffers Digest reuses from one call to the next.
	scratch []byte
	names   []string
}

// NewWorld returns a live-mode world whose random source uses seed.
func NewWorld(seed int64) *World {
	return &World{
		seed: seed,
		fs:   make(map[string]*file),
		qs:   make(map[string]*Queue),
	}
}

// randU64 draws from the world's random source, counting draws so a
// snapshot can record the stream position. The source (several KB of
// generator state) is built on the first draw: a replay world whose
// input log never runs dry draws nothing, so it never pays for one.
func (w *World) randU64() uint64 {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(w.seed))
	}
	w.draws++
	return w.rng.Uint64()
}

// StartRecording switches the world to Record mode, appending inputs to
// log.
func (w *World) StartRecording(log *trace.InputLog) {
	w.mode = Record
	w.log = log
}

// StartReplay switches the world to Replay mode, serving inputs from
// log. Records are matched per (thread, call) in FIFO order, so replay
// attempts with different interleavings still hand each thread the same
// input sequence it saw during production.
func (w *World) StartReplay(log *trace.InputLog) {
	w.StartReplayFrom(log, 0)
}

// StartReplayFrom switches the world to Replay mode serving only the
// log's records from index `from` on. This is the seam checkpointed
// replay flips mid-run: the prefix re-executes in Live mode — the same
// world seed regenerates the recorded inputs deterministically, with
// the blocking enabledness the production run saw (Replay mode enables
// a blocked call as soon as a logged input exists, which would let
// e.g. a queue Recv run before its Send and diverge the prefix) — and
// from the validated boundary on, the remaining logged inputs are
// served exactly as a replay from the start would serve them.
func (w *World) StartReplayFrom(log *trace.InputLog, from int) {
	w.mode = Replay
	w.log = log
	w.cursor = make(map[inputKey][]int)
	if from < 0 {
		from = 0
	}
	for i := from; i < len(log.Records); i++ {
		r := log.Records[i]
		k := inputKey{r.TID, r.Call}
		w.cursor[k] = append(w.cursor[k], i)
	}
}

// input runs fresh() for the authoritative value in Live/Record mode
// (logging it in Record mode) or pops the thread's next logged value in
// Replay mode.
func (w *World) input(tid trace.TID, call uint64, fresh func() uint64) uint64 {
	b := w.inputBytes(tid, call, func() []byte { return encodeU64(fresh()) })
	return decodeU64(b)
}

// inputBytes is the byte-level input channel: the result of fresh() is
// authoritative in Live/Record mode (and logged in Record mode); in
// Replay mode the thread's next logged value for this call is served
// instead, falling back to fresh() only on a divergent replay that
// consumes more inputs than were recorded.
func (w *World) inputBytes(tid trace.TID, call uint64, fresh func() []byte) []byte {
	switch w.mode {
	case Replay:
		k := inputKey{tid, call}
		if idxs := w.cursor[k]; len(idxs) > 0 {
			rec := w.log.Records[idxs[0]]
			w.cursor[k] = idxs[1:]
			return rec.Data
		}
		return fresh() // log dry: divergent replay, monitor will catch it
	case Record:
		v := fresh()
		w.log.Append(trace.InputRecord{TID: tid, Call: call, Data: v})
		return v
	default:
		return fresh()
	}
}

// hasReplayInput reports whether the thread has an unconsumed logged
// input for the call — used by blocking calls to decide enabledness
// during replay.
func (w *World) hasReplayInput(tid trace.TID, call uint64) bool {
	return len(w.cursor[inputKey{tid, call}]) > 0
}

// inject consults the thread's failure-injection hook (sched.InjectFn)
// for a call and applies the generic parts of the verdict to op: extra
// modelled cost (slow-I/O classes) and wedging (the op never becomes
// enabled, modelling a hung backend). The per-call failure paths
// (InjectFailOp — short reads, dropped sends, reset receives) are
// handled at each call site; calls without a failure path treat
// InjectFailOp as no action. With no hook installed this is a single
// nil check and allocates nothing.
func inject(t *sched.Thread, call uint64, op *sched.Op) sched.InjectAction {
	act := t.Inject(sched.InjectPoint{Kind: sched.InjectSyscall, Obj: call})
	if act.ExtraCost > 0 {
		op.Cost += act.ExtraCost
	}
	if act.Outcome == sched.InjectWedge {
		op.Enabled = func() bool { return false }
		op.Desc += " (wedged)"
	}
	return act
}

// finish completes an injected call in the calling thread: the panic
// outcome fires here, after the operation's scheduling point, so the
// run ends with an application crash (sched.ReasonCrash) exactly as a
// fault-triggered panic in a real handler would.
func finish(act sched.InjectAction, call uint64) {
	if act.Outcome == sched.InjectPanic {
		panic("injected fault: sys " + CallName(call))
	}
}

func encodeU64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func decodeU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < len(b) && i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Now samples the virtual clock (a gettimeofday analogue). The clock
// advances a little on every sample; the sampled value is an input.
func (w *World) Now(t *sched.Thread) uint64 {
	var v uint64
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallNow,
		Desc: "sys now",
		Cost: 4 * trace.CostUnit,
		Effect: func(ctx *sched.EffectCtx) {
			v = w.input(t.ID(), CallNow, func() uint64 {
				w.clock += 7
				return w.clock
			})
			ctx.Ev.Arg = v
		},
	}
	act := inject(t, CallNow, op)
	t.Point(op)
	finish(act, CallNow)
	return v
}

// Rand draws a random 64-bit value (an RDRAND/urandom analogue).
func (w *World) Rand(t *sched.Thread) uint64 {
	var v uint64
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallRand,
		Desc: "sys rand",
		Cost: 4 * trace.CostUnit,
		Effect: func(ctx *sched.EffectCtx) {
			v = w.input(t.ID(), CallRand, w.randU64)
			ctx.Ev.Arg = v
		},
	}
	act := inject(t, CallRand, op)
	t.Point(op)
	finish(act, CallRand)
	return v
}

// Sleep advances the virtual clock by d units and costs the sleeping
// thread d units of virtual time, so time-weighted schedulers pace it
// against the other threads' work — this is how daemon threads (log
// rotators, timers) spread their activity across a workload.
func (w *World) Sleep(t *sched.Thread, d uint64) {
	op := &sched.Op{
		Kind:   trace.KindSyscall,
		Obj:    CallSleep,
		Arg:    d,
		Desc:   "sys sleep",
		Cost:   max(d, 1) * trace.CostUnit,
		Effect: func(*sched.EffectCtx) { w.clock += d },
	}
	act := inject(t, CallSleep, op)
	t.Point(op)
	finish(act, CallSleep)
}

type file struct {
	name string
	data []byte
	gone bool
}

// FD is an open file handle with its own offset.
type FD struct {
	w    *World
	f    *file
	pos  int
	obj  uint64
	open bool
}

// Open opens (creating if absent) the named file.
func (w *World) Open(t *sched.Thread, name string) *FD {
	fd := &FD{w: w, obj: hashName(name), open: true}
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallOpen,
		Arg:  fd.obj,
		Desc: "sys open " + name,
		Cost: 8 * trace.CostUnit,
		Effect: func(*sched.EffectCtx) {
			f := w.fs[name]
			if f == nil || f.gone {
				f = &file{name: name}
				w.fs[name] = f
			}
			fd.f = f
		},
	}
	act := inject(t, CallOpen, op)
	t.Point(op)
	finish(act, CallOpen)
	return fd
}

// Unlink removes the named file.
func (w *World) Unlink(t *sched.Thread, name string) {
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallUnlink,
		Arg:  hashName(name),
		Desc: "sys unlink " + name,
		Cost: 8 * trace.CostUnit,
		Effect: func(*sched.EffectCtx) {
			if f := w.fs[name]; f != nil {
				f.gone = true
				delete(w.fs, name)
			}
		},
	}
	act := inject(t, CallUnlink, op)
	t.Point(op)
	finish(act, CallUnlink)
}

// FileSize returns the current size of a file without a scheduling
// point (oracle/setup use only).
func (w *World) FileSize(name string) int {
	if f := w.fs[name]; f != nil {
		return len(f.data)
	}
	return -1
}

// SeedFile installs file contents before a run (setup only).
func (w *World) SeedFile(name string, data []byte) {
	w.fs[name] = &file{name: name, data: append([]byte(nil), data...)}
}

// Write appends p at the handle's offset, returning the byte count (0
// when an injected I/O error drops the write).
func (fd *FD) Write(t *sched.Thread, p []byte) int {
	n := len(p)
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallWrite,
		Arg:  uint64(n),
		Desc: "sys write " + fd.f.name,
		Cost: 8 * trace.CostUnit,
	}
	act := inject(t, CallWrite, op)
	if act.Outcome == sched.InjectFailOp {
		n = 0 // the write is lost before reaching the file
	} else {
		op.Effect = func(*sched.EffectCtx) {
			f := fd.f
			for len(f.data) < fd.pos {
				f.data = append(f.data, 0)
			}
			f.data = append(f.data[:fd.pos], append(append([]byte(nil), p...), f.data[min(fd.pos+n, len(f.data)):]...)...)
			fd.pos += n
		}
	}
	t.Point(op)
	finish(act, CallWrite)
	return n
}

// Read fills p from the handle's offset, returning the byte count (0 at
// EOF). Like every data-bearing input, the bytes read are recorded in
// the input log and served back verbatim during replay: file contents
// can depend on other threads' interleaved writes, so the read result
// is non-deterministic input exactly as on a real kernel.
func (fd *FD) Read(t *sched.Thread, p []byte) int {
	var n int
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallRead,
		Arg:  uint64(len(p)),
		Desc: "sys read " + fd.f.name,
		Cost: 8 * trace.CostUnit,
	}
	// An injected I/O error returns no bytes and — because the failure
	// is decided by the same deterministic injector during recording and
	// every replay attempt — consumes nothing from the input log, so the
	// per-thread input cursors stay aligned.
	act := inject(t, CallRead, op)
	if act.Outcome != sched.InjectFailOp {
		op.Effect = func(ctx *sched.EffectCtx) {
			data := fd.w.inputBytes(t.ID(), CallRead, func() []byte {
				if fd.pos >= len(fd.f.data) {
					return nil
				}
				m := min(len(p), len(fd.f.data)-fd.pos)
				out := append([]byte(nil), fd.f.data[fd.pos:fd.pos+m]...)
				fd.pos += m
				return out
			})
			n = copy(p, data)
			ctx.Ev.Arg = uint64(n)
		}
	}
	t.Point(op)
	finish(act, CallRead)
	return n
}

// Close closes the handle.
func (fd *FD) Close(t *sched.Thread) {
	op := &sched.Op{
		Kind:   trace.KindSyscall,
		Obj:    CallClose,
		Arg:    fd.obj,
		Desc:   "sys close " + fd.f.name,
		Cost:   4 * trace.CostUnit,
		Effect: func(*sched.EffectCtx) { fd.open = false },
	}
	act := inject(t, CallClose, op)
	t.Point(op)
	finish(act, CallClose)
}

// Queue is a socket-like FIFO of messages: workload drivers Send client
// requests, server threads Recv them. Recv blocks while the queue is
// empty and open.
type Queue struct {
	w      *World
	name   string
	obj    uint64
	msgs   [][]byte
	closed bool
}

// NewQueue returns the world's queue with the given name, creating it
// if needed (no scheduling point; queues are created at setup).
func (w *World) NewQueue(name string) *Queue {
	if q := w.qs[name]; q != nil {
		return q
	}
	q := &Queue{w: w, name: name, obj: hashName(name)}
	w.qs[name] = q
	return q
}

// Send enqueues a message. An injected failure sheds it: the send is a
// scheduling point as usual but the message never reaches the queue —
// the overload-shedding model the scenario matrix drives.
func (q *Queue) Send(t *sched.Thread, msg []byte) {
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallSend,
		Arg:  q.obj,
		Desc: "sys send " + q.name,
		Cost: 8 * trace.CostUnit,
	}
	act := inject(t, CallSend, op)
	if act.Outcome != sched.InjectFailOp {
		op.Effect = func(*sched.EffectCtx) {
			q.msgs = append(q.msgs, append([]byte(nil), msg...))
		}
	}
	t.Point(op)
	finish(act, CallSend)
}

// Recv dequeues the next message, blocking while the queue is empty and
// open. ok is false once the queue is closed and drained.
//
// The received bytes are non-deterministic input (which message a thread
// gets depends on the interleaving of the receivers), so — as PRES does
// for socket reads — the result is recorded in the input log under
// every scheme and served back per-thread during replay. That pins the
// request-to-worker assignment without recording any ordering.
func (q *Queue) Recv(t *sched.Thread) (msg []byte, ok bool) {
	w := q.w
	op := &sched.Op{
		Kind: trace.KindSyscall,
		Obj:  CallRecv,
		Arg:  q.obj,
		Desc: "sys recv " + q.name,
		Cost: 8 * trace.CostUnit,
		Enabled: func() bool {
			if w.mode == Replay && w.hasReplayInput(t.ID(), CallRecv) {
				return true
			}
			return len(q.msgs) > 0 || q.closed
		},
		Effect: func(ctx *sched.EffectCtx) {
			data := w.inputBytes(t.ID(), CallRecv, func() []byte {
				if len(q.msgs) == 0 {
					return []byte{0} // closed and drained
				}
				m := q.msgs[0]
				q.msgs = q.msgs[1:]
				return append([]byte{1}, m...)
			})
			if len(data) == 0 || data[0] == 0 {
				return
			}
			msg = data[1:]
			ok = true
			ctx.Ev.Arg = uint64(len(msg))
		},
	}
	act := inject(t, CallRecv, op)
	if act.Outcome == sched.InjectFailOp {
		// Injected connection reset: the receive fails immediately
		// (never blocks), consumes nothing, and reports the peer gone.
		op.Enabled = nil
		op.Effect = nil
	}
	t.Point(op)
	finish(act, CallRecv)
	return msg, ok
}

// Close marks the queue closed; blocked and future Recvs drain whatever
// remains and then return ok=false.
func (q *Queue) Close(t *sched.Thread) {
	op := &sched.Op{
		Kind:   trace.KindSyscall,
		Obj:    CallCloseQueue,
		Arg:    q.obj,
		Desc:   "sys close-queue " + q.name,
		Cost:   4 * trace.CostUnit,
		Effect: func(*sched.EffectCtx) { q.closed = true },
	}
	act := inject(t, CallCloseQueue, op)
	t.Point(op)
	finish(act, CallCloseQueue)
}
