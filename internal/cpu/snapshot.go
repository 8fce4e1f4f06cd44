package cpu

import (
	"fmt"

	"fscoherence/internal/memsys"
)

// Checkpointing a thread: the coroutine's program counter and stack cannot be
// serialized, but they don't need to be. A thread function is deterministic
// given the sequence of values its result-bearing operations observed
// (synchronous loads and atomics — the only operations whose results the
// thread consumes; stores, prefetches, reduces, async loads and compute
// bursts return nothing it reads). The snapshot therefore records
//
//   - Committed: how many operations the thread has consumed, and
//   - Results:   the observed value of each result-bearing operation, in
//     commit order,
//
// and restore re-executes the thread function from the top in warm mode with
// a replay sink that answers each result-bearing operation from the log and
// performs no architectural work (caches, metadata and memory are restored
// separately from their own images). After exactly Committed operations the
// coroutine is parked at the identical program point — including all closure
// state such as workload RNG streams, which is rebuilt by the replay — and
// the core resumes byte-identically. Replay cost is proportional to ops
// committed so far, with zero simulated timing.
//
// A core holding a fetched-but-unissued op and a core about to fetch that op
// are observationally identical (Tick fetches and issues in the same cycle),
// so the snapshot does not distinguish them: replay always ends holding the
// next op (or with the thread exhausted), whichever state the original was
// in.

// OpRecorder accumulates the result log of one core's committed operations.
// It is armed via InOrder.SetRecorder when checkpointing is enabled; the
// detailed commit path and the warming path both append to it.
type OpRecorder struct {
	Log []uint64
}

// resultBearing reports whether the thread consumes the result of an op:
// loads and atomics only.
func resultBearing(kind OpKind) bool {
	return kind == OpLoad || kind == OpAtomic
}

// recordSink wraps a WarmSink, appending result-bearing values to the
// recorder. It lives inside InOrder so arming it costs no allocation.
type recordSink struct {
	inner WarmSink
	rec   *OpRecorder
}

func (r *recordSink) Load(addr memsys.Addr, size int) uint64 {
	v := r.inner.Load(addr, size)
	r.rec.Log = append(r.rec.Log, v)
	return v
}

func (r *recordSink) Store(addr memsys.Addr, size int, v uint64) { r.inner.Store(addr, size, v) }

func (r *recordSink) AtomicAdd(addr memsys.Addr, size int, delta uint64) uint64 {
	v := r.inner.AtomicAdd(addr, size, delta)
	r.rec.Log = append(r.rec.Log, v)
	return v
}

func (r *recordSink) Compute(n uint64) { r.inner.Compute(n) }

func (r *recordSink) ApplyOp(op *Op) uint64 {
	v := r.inner.ApplyOp(op)
	if resultBearing(op.Kind) {
		r.rec.Log = append(r.rec.Log, v)
	}
	return v
}

// replaySink answers result-bearing operations from a recorded log and
// performs no architectural work: machine state is restored from its own
// images, so replay only needs to steer the thread's control flow.
type replaySink struct {
	results []uint64
	pos     int
	short   bool // log exhausted before the replayed op count
}

func (r *replaySink) take() uint64 {
	if r.pos >= len(r.results) {
		r.short = true
		return 0
	}
	v := r.results[r.pos]
	r.pos++
	return v
}

func (r *replaySink) Load(addr memsys.Addr, size int) uint64     { return r.take() }
func (r *replaySink) Store(addr memsys.Addr, size int, v uint64) {}
func (r *replaySink) AtomicAdd(addr memsys.Addr, size int, delta uint64) uint64 {
	return r.take()
}
func (r *replaySink) Compute(n uint64) {}
func (r *replaySink) ApplyOp(op *Op) uint64 {
	if resultBearing(op.Kind) {
		return r.take()
	}
	return 0
}

// ThreadImage is the serializable state of one in-order core and its thread.
type ThreadImage struct {
	Committed uint64   // operations consumed by the thread so far
	BusyUntil uint64   // end of an in-progress compute burst (may exceed the drain cycle)
	Results   []uint64 // values observed by result-bearing ops, in commit order
}

// SetRecorder arms result logging on the core. Must be armed from the first
// committed operation (or re-armed by RestoreThread) for snapshots to be
// complete.
func (c *InOrder) SetRecorder(r *OpRecorder) { c.rec = r }

// SnapshotThread captures the thread's replay state. The machine must be
// drained (no outstanding access).
func (c *InOrder) SnapshotThread() ThreadImage {
	if c.waiting {
		panic("cpu: SnapshotThread with an outstanding access (machine not drained)")
	}
	if c.rec == nil {
		panic("cpu: SnapshotThread without a recorder armed")
	}
	return ThreadImage{
		Committed: c.committed,
		BusyUntil: c.busyUntil,
		Results:   append([]uint64(nil), c.rec.Log...),
	}
}

// RestoreThread replays the thread function up to img.Committed operations,
// parking the coroutine at the exact program point of the snapshot. It must
// be called on a freshly constructed core whose thread has not started. The
// recorder (if armed) is re-seeded with the replayed log so subsequent
// snapshots stay complete.
func (c *InOrder) RestoreThread(img ThreadImage) error {
	if c.started || c.committed != 0 || c.haveOp || c.exhausted {
		return fmt.Errorf("cpu: RestoreThread on a core that already ran (core %d)", c.id)
	}
	rs := &replaySink{results: img.Results}
	if img.Committed > 0 {
		ctx := c.runner.ctx
		ctx.warmSink = rs
		ctx.warmBudget = img.Committed
		op, ok := c.runner.next()
		consumed := img.Committed - ctx.warmBudget
		ctx.warmSink = nil
		if !ok {
			c.exhausted = true
			if consumed != img.Committed {
				return fmt.Errorf("cpu: core %d thread ended after %d of %d replayed ops (checkpoint from a different workload?)", c.id, consumed, img.Committed)
			}
		} else {
			c.cur, c.haveOp = op, true
		}
		if rs.short {
			return fmt.Errorf("cpu: core %d result log exhausted at entry %d during replay", c.id, rs.pos)
		}
		if rs.pos != len(rs.results) {
			return fmt.Errorf("cpu: core %d replay consumed %d of %d logged results", c.id, rs.pos, len(rs.results))
		}
		c.started = true
	} else if len(img.Results) != 0 {
		return fmt.Errorf("cpu: core %d has %d logged results but zero committed ops", c.id, len(img.Results))
	}
	c.busyUntil = img.BusyUntil
	c.committed = img.Committed
	if c.rec != nil {
		c.rec.Log = append(c.rec.Log[:0], img.Results...)
	}
	return nil
}
