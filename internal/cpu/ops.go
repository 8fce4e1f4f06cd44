// Package cpu models the cores driving the simulated memory hierarchy.
//
// Simulated threads are ordinary Go functions (program-driven simulation):
// each runs in its own goroutine and talks to its core model through a
// strictly synchronous channel handshake, so the simulation stays fully
// deterministic. Two core models are provided: a blocking in-order core (the
// paper's FS-mode configuration) and a simplified 8-wide out-of-order core
// with non-blocking misses and wide commit (the §VIII-B OOO study).
package cpu

import (
	"encoding/binary"

	"fscoherence/internal/memsys"
)

// OpKind enumerates the operations a simulated thread can issue.
type OpKind int

const (
	OpCompute OpKind = iota // spend Cycles cycles of local computation
	OpLoad
	OpStore
	OpAtomic // atomic read-modify-write (returns the old value)
	OpPrefetch
	OpReduce // commutative accumulation into a declared reduction region
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	case OpPrefetch:
		return "prefetch"
	case OpReduce:
		return "reduce"
	}
	return "?"
}

// AtomicFn computes the new value of an atomic RMW from the old one.
type AtomicFn func(old uint64) uint64

// Op is one operation of a simulated thread's dynamic instruction stream.
// Values are little-endian integers of Size bytes.
type Op struct {
	Kind   OpKind
	Addr   memsys.Addr
	Size   int
	Value  uint64   // store value; atomic add delta when Fn is nil
	Fn     AtomicFn // atomic update function; nil means old + Value (the alloc-free AtomicAdd encoding)
	Cycles uint64   // compute duration

	// Async marks a memory operation whose result the thread does not
	// consume. The out-of-order core overlaps async operations (up to its
	// window); the in-order core treats every operation as blocking.
	Async bool
}

// decodeLE converts a little-endian slice to uint64.
func decodeLE(b []byte) uint64 {
	var buf [8]byte
	copy(buf[:], b)
	return binary.LittleEndian.Uint64(buf[:])
}
