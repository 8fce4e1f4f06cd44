package cpu

import (
	"fmt"
	"iter"

	"fscoherence/internal/memsys"
)

// ThreadFunc is the body of a simulated thread. It issues memory operations
// through the Ctx; every call blocks (in simulated time) until the operation
// is accepted or completed by the core model.
type ThreadFunc func(ctx *Ctx)

// threadAborted is panicked inside a thread coroutine when the simulation
// shuts down early; the coroutine wrapper recovers it.
type threadAborted struct{}

// Ctx is a simulated thread's handle to its core. Its methods may only be
// called from the ThreadFunc.
//
// The handshake is a coroutine switch, not a channel handoff: do() yields the
// operation to the core model, which runs the thread's continuation (via
// threadRunner.next) only when it wants the next operation, after recording
// the previous result in res. Each simulated operation therefore costs two
// in-place stack switches instead of two scheduler round trips — the
// difference is the bulk of the simulator's wall-clock time on handshake-bound
// workloads.
type Ctx struct {
	yield func(Op) bool
	res   uint64

	// Direct-apply warming mode (see InOrder.WarmRun): while warmSink is
	// set, the hot Ctx methods commit operations inline through it instead of
	// yielding, so a functional-warming quantum costs one coroutine round
	// trip instead of one per operation — and the hot methods (Load, Store,
	// AtomicAdd, Compute) never even build an Op, calling the sink's typed
	// methods directly (constructing and copying the 64-byte Op per warmed
	// commit used to dominate warming profiles). warmBudget counts the
	// operations left in the quantum; the op that finds it exhausted leaves
	// warm mode and yields normally, handing control back to the core model
	// unexecuted. warmOp is the scratch slot do() hands to ApplyOp by pointer
	// on the rare op kinds without a typed fast path.
	warmSink   WarmSink
	warmBudget uint64
	warmOp     Op
}

// WarmSink commits operations functionally — full architectural effect
// (caches, metadata, memory values, commit counters), no timing. The typed
// methods mirror the hot Ctx entry points so warming skips Op construction;
// ApplyOp is the generic path for boundary-held ops and the rarer kinds.
// Loads and atomics return the loaded (pre-RMW) value.
type WarmSink interface {
	Load(addr memsys.Addr, size int) uint64
	Store(addr memsys.Addr, size int, v uint64)
	AtomicAdd(addr memsys.Addr, size int, delta uint64) uint64
	Compute(n uint64)
	ApplyOp(op *Op) uint64
}

// warmTake consumes one unit of warm budget if warming is armed, leaving warm
// mode when the quantum is exhausted. It reports whether the caller should
// commit through the sink.
func (c *Ctx) warmTake() bool {
	if c.warmSink == nil {
		return false
	}
	if c.warmBudget == 0 {
		c.warmSink = nil
		return false
	}
	c.warmBudget--
	return true
}

// do performs the synchronous handshake for one operation. In warm mode it
// commits through the sink's generic ApplyOp instead (via the warmOp scratch
// slot, so the op does not escape into a heap allocation).
func (c *Ctx) do(op Op) uint64 {
	if c.warmTake() {
		c.warmOp = op
		return c.warmSink.ApplyOp(&c.warmOp)
	}
	if !c.yield(op) {
		// The core stopped the coroutine: unwind the thread function.
		panic(threadAborted{})
	}
	return c.res
}

func checkSize(size int) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("cpu: bad access size %d", size))
	}
}

// Load reads a size-byte little-endian value and returns it.
func (c *Ctx) Load(addr memsys.Addr, size int) uint64 {
	checkSize(size)
	if c.warmTake() {
		return c.warmSink.Load(addr, size)
	}
	return c.do(Op{Kind: OpLoad, Addr: addr, Size: size})
}

// Store writes a size-byte little-endian value.
func (c *Ctx) Store(addr memsys.Addr, size int, v uint64) {
	checkSize(size)
	if c.warmTake() {
		c.warmSink.Store(addr, size, v)
		return
	}
	c.do(Op{Kind: OpStore, Addr: addr, Size: size, Value: v, Async: true})
}

// StoreSync writes and waits for the store to commit (release semantics in
// the simple consistency model of the simulator).
func (c *Ctx) StoreSync(addr memsys.Addr, size int, v uint64) {
	checkSize(size)
	c.do(Op{Kind: OpStore, Addr: addr, Size: size, Value: v})
}

// AtomicRMW applies fn atomically and returns the old value.
func (c *Ctx) AtomicRMW(addr memsys.Addr, size int, fn AtomicFn) uint64 {
	checkSize(size)
	return c.do(Op{Kind: OpAtomic, Addr: addr, Size: size, Fn: fn})
}

// AtomicAdd atomically adds delta and returns the old value. Encoded as an
// atomic with a nil Fn and the delta in Value, so the hottest RMW needs no
// per-call closure allocation.
func (c *Ctx) AtomicAdd(addr memsys.Addr, size int, delta uint64) uint64 {
	checkSize(size)
	if c.warmTake() {
		return c.warmSink.AtomicAdd(addr, size, delta)
	}
	return c.do(Op{Kind: OpAtomic, Addr: addr, Size: size, Value: delta})
}

// TestAndSet atomically sets the location to 1 and returns the old value.
func (c *Ctx) TestAndSet(addr memsys.Addr, size int) uint64 {
	return c.AtomicRMW(addr, size, func(uint64) uint64 { return 1 })
}

// Reduce performs a commutative accumulation (+= delta) into a word of a
// declared reduction region (§VII). The operation is fire-and-forget; the
// exact sum is not observable until the region's privatized episodes merge.
// A load by a NON-participating core forces that merge (its byte check
// conflicts with the recorded reduction writers); a participant's own load
// may return its local partial value — the same contract as an OpenMP
// reduction variable before the reduction barrier.
func (c *Ctx) Reduce(addr memsys.Addr, size int, delta uint64) {
	checkSize(size)
	c.do(Op{Kind: OpReduce, Addr: addr, Size: size, Value: delta, Async: true})
}

// Compute spends n cycles of local computation.
func (c *Ctx) Compute(n uint64) {
	if n == 0 {
		return
	}
	if c.warmTake() {
		c.warmSink.Compute(n)
		return
	}
	c.do(Op{Kind: OpCompute, Cycles: n})
}

// Prefetch fetches the block containing addr without touching any byte.
func (c *Ctx) Prefetch(addr memsys.Addr) {
	c.do(Op{Kind: OpPrefetch, Addr: addr})
}

// ---------------------------------------------------------------------------
// Synchronization built from coherent atomics: these primitives generate real
// protocol traffic (and real true sharing on the lock words).
// ---------------------------------------------------------------------------

// LockAcquire spins on a test-and-test-and-set lock at addr (8 bytes).
func (c *Ctx) LockAcquire(addr memsys.Addr) {
	for {
		// Spin locally on the shared copy until the lock looks free.
		for c.Load(addr, 8) != 0 {
			c.Compute(4)
		}
		if c.TestAndSet(addr, 8) == 0 {
			return
		}
		c.Compute(8) // lost the race: back off briefly
	}
}

// LockRelease releases a lock acquired by LockAcquire.
func (c *Ctx) LockRelease(addr memsys.Addr) {
	c.StoreSync(addr, 8, 0)
}

// Barrier is a sense-reversing centralized barrier. CountAddr holds the
// arrival count and SenseAddr the global sense; both are 8-byte words.
type Barrier struct {
	CountAddr memsys.Addr
	SenseAddr memsys.Addr
	Threads   int
}

// Wait blocks the calling thread until all Threads threads arrive.
// localSense must start at 0 and is flipped on each use; the caller keeps it
// across invocations.
func (b *Barrier) Wait(c *Ctx, localSense *uint64) {
	*localSense ^= 1
	arrived := c.AtomicAdd(b.CountAddr, 8, 1)
	if int(arrived) == b.Threads-1 {
		// Both stores are synchronous: the count must be reset before the
		// sense release becomes visible, even on the out-of-order core.
		c.StoreSync(b.CountAddr, 8, 0)
		c.StoreSync(b.SenseAddr, 8, *localSense)
		return
	}
	for c.Load(b.SenseAddr, 8) != *localSense {
		c.Compute(4)
	}
}

// threadRunner owns the coroutine side of one thread. next, complete and stop
// may only be called from the simulation goroutine (iter.Pull's next/stop are
// not reentrant), which is also the discipline the core models follow.
type threadRunner struct {
	ctx     *Ctx
	nextOp  func() (Op, bool)
	stopFn  func()
	stopped bool
}

// startThread builds the coroutine running fn as a simulated thread. The
// thread body does not start executing until the first next() call.
func startThread(fn ThreadFunc) *threadRunner {
	ctx := &Ctx{}
	next, stop := iter.Pull(func(yield func(Op) bool) {
		ctx.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(threadAborted); ok {
					return // simulation shut down early
				}
				panic(r)
			}
		}()
		fn(ctx)
	})
	return &threadRunner{ctx: ctx, nextOp: next, stopFn: stop}
}

// next resumes the thread and fetches its next operation; ok is false once
// the thread function returned (or the runner was stopped).
func (r *threadRunner) next() (Op, bool) {
	return r.nextOp()
}

// complete records the result of the previous operation; the thread observes
// it when next() resumes it.
func (r *threadRunner) complete(v uint64) {
	r.ctx.res = v
}

// stop terminates the thread coroutine: a thread parked mid-operation unwinds
// via threadAborted, releasing its goroutine. Idempotent; must be called from
// the simulation goroutine like next.
func (r *threadRunner) stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.stopFn()
}
