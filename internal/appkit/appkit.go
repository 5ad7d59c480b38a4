// Package appkit is the instrumented-program kit: the API the
// application corpus is written against, standing in for the paper's
// Pin-based binary instrumentation.
//
// Applications receive an Env (main thread + virtual syscall world +
// workload knobs) and perform every shared-memory access through
// internal/mem, every synchronization through internal/ssync and every
// system call through internal/vsys. Function and basic-block
// instrumentation points — the hooks the FUNC and BB sketching
// mechanisms record — are emitted with Func and BB.
package appkit

import (
	"hash/fnv"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Env is what a program's Run receives.
type Env struct {
	T *sched.Thread // the program's main thread
	W *vsys.World   // virtual syscall layer for this execution
	// Scale sizes the workload (iterations, requests, matrix size);
	// each program documents its interpretation. Zero means the
	// program's default.
	Scale int
	// Procs is the modelled processor count, for programs that size
	// their worker pools like the originals do.
	Procs int
	// FixBugs selects each program's patched code paths (the correct
	// synchronization). Overhead experiments run the patched programs
	// so long workloads are not cut short by a manifestation; the fixed
	// variants are also the ground truth that the failures really are
	// the documented races.
	FixBugs bool
}

// ScaleOr returns the workload scale, defaulting to def.
func (e *Env) ScaleOr(def int) int {
	if e.Scale <= 0 {
		return def
	}
	return e.Scale
}

// ProcsOr returns the processor count, defaulting to def.
func (e *Env) ProcsOr(def int) int {
	if e.Procs <= 0 {
		return def
	}
	return e.Procs
}

// Program is one application in the corpus.
type Program struct {
	Name     string
	Category string   // "server", "desktop" or "scientific"
	Bugs     []string // bug ids this program can manifest
	// Run executes the workload on the environment's main thread. It
	// must allocate all program state inside Run so every execution
	// starts fresh.
	Run func(env *Env)
}

// id hashes an instrumentation label.
func id(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// FuncID returns the stable id the FUNC sketch sees for a function name.
func FuncID(name string) uint64 { return id("func:" + name) }

// BBID returns the stable id the BB sketch sees for a block label.
func BBID(name string) uint64 { return id("bb:" + name) }

// Func brackets body with function-entry/exit instrumentation points,
// the hooks the FUNC sketching mechanism records.
func Func(t *sched.Thread, name string, body func()) {
	fid := FuncID(name)
	t.Point(&sched.Op{Kind: trace.KindFuncEnter, Obj: fid, Desc: "enter " + name})
	body()
	t.Point(&sched.Op{Kind: trace.KindFuncExit, Obj: fid, Desc: "exit " + name})
}

// BB marks a basic-block boundary, the hook the BB sketching mechanism
// records. Real instrumentation marks every block; programs in the
// corpus mark loop bodies and branch arms, the same density class. A
// plain BB represents a small block (DefaultBlockAccesses private
// memory accesses).
func BB(t *sched.Thread, name string) {
	Block(t, name, DefaultBlockAccesses)
}

// DefaultBlockAccesses is the private-memory-access count a plain BB
// marker represents: a typical small basic block.
const DefaultBlockAccesses = 4

// Block marks a basic-block boundary representing a straight-line
// region that performs n private (thread-local) memory accesses. The
// region costs n time units in the execution model, and — because real
// binary instrumentation cannot tell private accesses from shared ones —
// the RW sketching mechanism pays to record all n of them, while the
// cheaper sketches skip the block entirely. This is what separates the
// schemes' production overheads by orders of magnitude, exactly as on
// the paper's testbed.
//
// Private accesses cannot race (no other thread can address them), so
// the region needs no effect and no race-detector attention; only its
// cost and recording weight matter.
func Block(t *sched.Thread, name string, n int) {
	t.Point(BlockOp(name, n))
}

// BlockOp returns the scheduling-point op Block performs, for declaring
// straight-line runs with sched.Thread.PointBatch: a basic block
// followed by the shared accesses it feeds is the canonical batch shape
// in the compute kernels.
func BlockOp(name string, n int) *sched.Op {
	if n < 1 {
		n = 1
	}
	return &sched.Op{
		Kind: trace.KindBB,
		Obj:  BBID(name),
		Arg:  uint64(n),
		Cost: uint64(n) * trace.CostUnit,
		Desc: "bb " + name,
	}
}
