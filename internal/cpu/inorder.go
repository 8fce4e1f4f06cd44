package cpu

import (
	"fscoherence/internal/coherence"
	"fscoherence/internal/stats"
)

// NoEvent is the NextEvent sentinel: the core has no self-driven wake-up and
// will only act again in response to an external event (a memory completion
// delivered through its L1).
const NoEvent = ^uint64(0)

// Core is a processor model driving one L1 controller.
type Core interface {
	// Tick advances the core one cycle.
	Tick(now uint64)
	// Finished reports whether the thread completed and all of the core's
	// operations retired.
	Finished() bool
	// NextEvent returns the earliest cycle > now at which the core might make
	// progress without external input, or NoEvent if it is blocked waiting on
	// its L1 (whose completions are covered by the L1's and the network's own
	// wake-up reports). Returning an earlier cycle than necessary is safe
	// (the engine just ticks an idle round); later is a correctness bug.
	NextEvent(now uint64) uint64
	// SkipIdle accounts for n consecutive cycles the engine fast-forwarded
	// over: the core must apply exactly the per-cycle bookkeeping (stall
	// counters) its Tick would have performed in each skipped cycle, so
	// counter snapshots stay byte-identical to the naive engine.
	SkipIdle(n uint64)
	// Stop terminates the core's thread coroutine; a thread parked
	// mid-operation unwinds cleanly. Must be called when a simulation ends
	// before its threads finish (deadlock, cycle guard, oracle failure).
	Stop()
}

// InOrder is the blocking in-order core of the paper's main configuration:
// one operation at a time, every memory operation blocks until it commits.
type InOrder struct {
	id     int
	l1     *coherence.L1
	runner *threadRunner
	stats  *stats.Set

	started   bool
	exhausted bool // thread function returned

	busyUntil uint64
	waiting   bool // a memory access is outstanding
	retry     bool // access rejected by the L1; retry each cycle
	hold      bool // issue held at a sampling window boundary (drain)
	cur       Op
	haveOp    bool

	// slot is the core's single reusable Access (one operation outstanding
	// at a time), so the issue path performs no heap allocation.
	slot *accessSlot

	// Checkpoint support (see snapshot.go): committed counts every operation
	// this core consumed (detailed and warmed); rec, when armed, logs the
	// values result-bearing ops observed so the thread can be replayed after
	// a restore. recSink is the preallocated recording wrapper WarmRun
	// installs around its sink while rec is armed.
	committed uint64
	rec       *OpRecorder
	recSink   recordSink
}

// NewInOrder builds an in-order core running fn.
func NewInOrder(id int, l1 *coherence.L1, fn ThreadFunc, st *stats.Set) *InOrder {
	c := &InOrder{id: id, l1: l1, runner: startThread(id, fn), stats: st}
	c.slot = newAccessSlot(c.finish)
	return c
}

// finish completes the outstanding access, unblocking the thread.
func (c *InOrder) finish(v uint64, _ *accessSlot) {
	c.waiting = false
	if c.rec != nil && resultBearing(c.slot.op.Kind) {
		c.rec.Log = append(c.rec.Log, v)
	}
	c.runner.complete(v)
}

// Stop terminates the thread coroutine (idempotent).
func (c *InOrder) Stop() { c.runner.stop() }

// Finished reports thread completion.
func (c *InOrder) Finished() bool {
	return c.exhausted && !c.waiting && !c.haveOp
}

// Tick advances the core one cycle.
func (c *InOrder) Tick(now uint64) {
	if c.Finished() {
		return
	}
	if c.busyUntil > now {
		return // computing
	}
	if c.waiting {
		c.stats.IncID(stats.IDStallCycles)
		if c.retry {
			c.retry = c.l1.Submit(&c.slot.acc) == coherence.SubmitRetry
		}
		return
	}
	if c.hold {
		return // draining at a sampling window boundary: no new issues
	}
	if !c.haveOp {
		if !c.fetch() {
			return
		}
	}
	op := c.cur
	c.haveOp = false
	c.committed++
	c.stats.IncID(stats.IDOpsCommitted)
	switch op.Kind {
	case OpCompute:
		c.stats.AddID(stats.IDComputeCycles, op.Cycles)
		c.busyUntil = now + op.Cycles
		c.runner.complete(0)
	default:
		c.waiting = true
		c.retry = c.l1.Submit(c.slot.prepare(op)) == coherence.SubmitRetry
	}
}

// NextEvent reports the in-order core's wake-up: the end of the current
// compute burst, the next cycle when an operation is ready to execute, or
// NoEvent while a memory access is outstanding. A rejected access (retry)
// also reports NoEvent: the L1 rejection can only clear in response to an
// external completion, and the per-cycle retry has no architectural or
// counter side effects until then.
func (c *InOrder) NextEvent(now uint64) uint64 {
	if c.Finished() {
		return NoEvent
	}
	if c.busyUntil > now {
		return c.busyUntil
	}
	if c.waiting || c.hold {
		return NoEvent
	}
	return now + 1
}

// HoldIssue gates the issue of new operations: while held, the core still
// retries and completes its outstanding access (counting stalls as usual) but
// fetches nothing new. The sampling scheduler holds all cores to drain the
// machine at a window boundary.
func (c *InOrder) HoldIssue(v bool) { c.hold = v }

// Outstanding reports whether a memory access is in flight (the drain
// condition: a held core is quiesced once this is false).
func (c *InOrder) Outstanding() bool { return c.waiting }

// WarmRun executes up to budget of the thread's operations functionally,
// committing each through sink, which must perform the full architectural
// effect — caches, metadata, memory values, commit counters — with no timing.
// Compute bursts are passed through the sink like every other operation.
//
// The quantum runs inside the thread coroutine (the hot Ctx methods commit
// inline while warm mode is armed), so it costs one coroutine round trip
// total instead of one per operation. The operation that exhausts the budget
// is yielded back unexecuted and held as the core's fetched op; the next
// WarmRun — or the detailed engine's Tick — executes it, so warming can stop
// and resume at any operation boundary. Returns the number of operations
// committed and whether the thread is still alive.
func (c *InOrder) WarmRun(sink WarmSink, budget uint64) (uint64, bool) {
	if c.rec != nil {
		c.recSink.inner, c.recSink.rec = sink, c.rec
		sink = &c.recSink
	}
	done, alive := c.warmRun(sink, budget)
	c.committed += done
	return done, alive
}

func (c *InOrder) warmRun(sink WarmSink, budget uint64) (uint64, bool) {
	if c.waiting {
		panic("cpu: WarmRun with an outstanding access (machine not drained)")
	}
	if c.Finished() || budget == 0 {
		return 0, !c.Finished()
	}
	var done uint64
	// A boundary-yielded op (fetched but not executed) commits first; its
	// result is delivered through the normal resume path.
	if c.haveOp {
		c.haveOp = false
		c.runner.complete(sink.ApplyOp(&c.cur))
		done++
		if done >= budget {
			return done, true
		}
	}
	if c.exhausted {
		return done, false
	}
	ctx := c.runner.ctx
	quantum := budget - done
	ctx.warmSink = sink
	ctx.warmBudget = quantum
	op, ok := c.runner.next()
	done += quantum - ctx.warmBudget
	ctx.warmSink = nil
	if !ok {
		c.exhausted = true
		return done, false
	}
	c.cur, c.haveOp = op, true
	return done, true
}

// SkipIdle applies the stall accounting of n skipped cycles. The engine only
// skips cycles in which Tick would have made no progress, so the naive loop
// would have counted one memory-stall cycle per skipped cycle iff an access
// was outstanding (a compute burst early-returns without counting).
func (c *InOrder) SkipIdle(n uint64) {
	if c.waiting {
		c.stats.AddID(stats.IDStallCycles, n)
	}
}

// fetch pulls the next operation from the thread.
func (c *InOrder) fetch() bool {
	if c.exhausted {
		return false
	}
	op, ok := c.runner.next()
	if !ok {
		c.exhausted = true
		return false
	}
	c.cur = op
	c.haveOp = true
	return true
}
