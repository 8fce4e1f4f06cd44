package cpu

import (
	"fscoherence/internal/coherence"
	"fscoherence/internal/stats"
)

// robEntry is one in-flight operation in the OOO core's reorder buffer.
type robEntry struct {
	op        Op
	done      bool
	computeAt uint64 // compute ops complete at this cycle
	isCompute bool
}

// OOO is a simplified wide out-of-order core (the §VIII-B study): it issues
// up to Width operations per cycle, keeps up to ROBSize in flight, overlaps
// compute and asynchronous memory operations with outstanding misses, and
// retires up to Width operations per cycle in order. A synchronous memory
// operation (whose value the thread consumes) stalls further fetch until its
// value returns, modelling a true data dependence.
type OOO struct {
	id     int
	l1     *coherence.L1
	runner *threadRunner
	stats  *stats.Set

	width   int
	robSize int

	rob       []*robEntry
	nextOp    *Op
	opBuf     Op // backing for nextOp (avoids a per-fetch allocation)
	exhausted bool

	// free and entFree pool access slots and ROB entries (bounded by the
	// ROB capacity), keeping the issue path allocation-free in steady state.
	free    []*accessSlot
	entFree []*robEntry

	// submitBlocked records that the last Tick's issue loop ended on an L1
	// Submit rejection. The rejection can only clear through an external
	// event (a completion or message at the L1), so while it stands the core
	// reports no self-driven wake-up. Tick clears it before reissuing.
	submitBlocked bool
}

// NewOOO builds an out-of-order core with the given issue/commit width and
// reorder-buffer capacity, running fn. The L1 should be configured with a
// matching number of MSHRs.
func NewOOO(id int, l1 *coherence.L1, fn ThreadFunc, width, robSize int, st *stats.Set) *OOO {
	c := &OOO{id: id, l1: l1, runner: startThread(id, fn), stats: st, width: width, robSize: robSize}
	c.refill(0, true)
	return c
}

// Stop terminates the thread coroutine (idempotent).
func (c *OOO) Stop() { c.runner.stop() }

// getSlot takes an access slot from the pool, growing it if needed.
func (c *OOO) getSlot() *accessSlot {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	return newAccessSlot(c.finish)
}

// finish completes a memory operation: marks its ROB entry done, recycles the
// slot and, for synchronous operations, resumes the thread with the value.
func (c *OOO) finish(v uint64, s *accessSlot) {
	s.ent.done = true
	sync := s.sync
	s.ent = nil
	c.free = append(c.free, s)
	if sync {
		c.refill(v, false)
	}
}

// getEnt takes a ROB entry from the pool, growing it if needed.
func (c *OOO) getEnt() *robEntry {
	if n := len(c.entFree); n > 0 {
		e := c.entFree[n-1]
		c.entFree = c.entFree[:n-1]
		*e = robEntry{}
		return e
	}
	return &robEntry{}
}

// refill obtains the thread's next operation into the single-op fetch buffer.
// When first is true no completion is owed (initial fetch).
func (c *OOO) refill(v uint64, first bool) {
	if c.exhausted {
		return
	}
	if !first {
		c.runner.complete(v)
	}
	op, ok := c.runner.next()
	if !ok {
		c.exhausted = true
		c.nextOp = nil
		return
	}
	c.opBuf = op
	c.nextOp = &c.opBuf
}

// Finished reports whether the thread completed and the ROB drained.
func (c *OOO) Finished() bool {
	return c.exhausted && len(c.rob) == 0 && c.nextOp == nil
}

// Tick retires completed head entries, then issues new operations.
func (c *OOO) Tick(now uint64) {
	if c.Finished() {
		return
	}
	c.submitBlocked = false

	// Retire in order, up to the commit width.
	retired := 0
	for retired < c.width && len(c.rob) > 0 {
		head := c.rob[0]
		if head.isCompute {
			if head.computeAt > now {
				break
			}
		} else if !head.done {
			break
		}
		c.rob = c.rob[1:]
		retired++
		c.stats.IncID(stats.IDOpsCommitted)
		c.entFree = append(c.entFree, head)
	}
	if retired == 0 && len(c.rob) > 0 {
		c.stats.IncID(stats.IDCommitStalls)
	}

	// Issue up to the issue width.
	for issued := 0; issued < c.width; issued++ {
		if c.nextOp == nil || len(c.rob) >= c.robSize {
			return
		}
		op := *c.nextOp
		switch op.Kind {
		case OpCompute:
			ent := c.getEnt()
			ent.op = op
			ent.isCompute = true
			ent.computeAt = now + op.Cycles
			c.rob = append(c.rob, ent)
			c.stats.AddID(stats.IDComputeCycles, op.Cycles)
			c.refill(0, false)
		default:
			// Synchronous means the thread consumes the result (a true data
			// dependence): loads, atomics, and synchronizing stores. Async
			// stores, reductions and prefetches are fire-and-forget.
			sync := op.Kind == OpLoad || op.Kind == OpAtomic || (op.Kind == OpStore && !op.Async)
			s := c.getSlot()
			s.sync = sync
			acc := s.prepare(op)
			if c.l1.Submit(acc) == coherence.SubmitRetry {
				c.free = append(c.free, s)
				c.submitBlocked = true
				return // head-of-line: retry next cycle
			}
			ent := c.getEnt()
			ent.op = op
			s.ent = ent
			c.rob = append(c.rob, ent)
			if sync {
				c.nextOp = nil // refilled when the value returns
			} else {
				c.refill(0, false)
			}
		}
	}
}

// NextEvent reports the OOO core's wake-up: the next cycle if the ROB head
// can retire or a buffered operation can issue, the head compute burst's
// completion cycle otherwise, and NoEvent when every path forward waits on an
// external memory completion (including a Submit-rejected head-of-line
// operation, whose rejection only clears through L1 activity).
func (c *OOO) NextEvent(now uint64) uint64 {
	if c.Finished() {
		return NoEvent
	}
	next := uint64(NoEvent)
	if len(c.rob) > 0 {
		head := c.rob[0]
		if head.isCompute {
			if head.computeAt <= now {
				return now + 1 // retire was width-limited this cycle
			}
			next = head.computeAt
		} else if head.done {
			return now + 1
		}
	}
	if c.nextOp != nil && len(c.rob) < c.robSize && !c.submitBlocked {
		return now + 1
	}
	return next
}

// SkipIdle applies the commit-stall accounting of n skipped cycles: in every
// cycle the engine skipped, Tick would have retired nothing (the skip
// happens only when no retirement is possible) and counted one commit stall
// iff the ROB was non-empty.
func (c *OOO) SkipIdle(n uint64) {
	if len(c.rob) > 0 {
		c.stats.AddID(stats.IDCommitStalls, n)
	}
}
