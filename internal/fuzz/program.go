package fuzz

import (
	"encoding/json"
	"fmt"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
)

// Address layout. Every generated program uses the same fixed map of block
// indices, so shrinking threads or operations never moves an address: a
// shrunk program exercises a subset of the original traffic.
const (
	blockBytes = 64
	layoutBase = memsys.Addr(0x40000)

	numFSLines = 3 // falsely-shared lines: 8 x 8-byte slots, slot i owned by thread i
	fsSlots    = 8

	blkFS      = 0  // blocks 0..numFSLines-1
	blkShared  = 4  // word 0: truly-shared atomic counter
	blkLock    = 5  // word 0: test-and-test-and-set lock
	blkLocked  = 6  // word 0: counter protected by the lock
	blkRacy    = 7  // 8 words written by racing plain stores (excluded from the SC check)
	blkBarrier = 8  // word 0: barrier count, word 1: barrier sense
	blkReduce  = 9  // 8 words: declared reduction region (when Program.UseReduction)
	blkPriv    = 16 // thread t owns blocks blkPriv+t*privLines .. +privLines-1
	privLines  = 4
)

// addrOf returns the address of byte off within layout block index blk.
func addrOf(blk, off int) memsys.Addr {
	return layoutBase + memsys.Addr(blk*blockBytes+off)
}

// privBase returns the base address of thread t's private region.
func privBase(t int) memsys.Addr {
	return addrOf(blkPriv+t*privLines, 0)
}

// OpKind names one generated operation. Kinds are short strings so repro
// files read naturally.
type OpKind string

const (
	// KFSAdd atomically adds V to the thread's own 8-byte slot of falsely
	// shared line A%numFSLines — the paper's core false-sharing pattern.
	KFSAdd OpKind = "fs+"
	// KFSLoad reads another thread's slot of a falsely shared line: a true
	// cross-thread dependence that forces CHK conflicts and episode
	// terminations under FSLite.
	KFSLoad OpKind = "fsrd"
	// KSharedAdd atomically adds V to the truly shared counter.
	KSharedAdd OpKind = "sh+"
	// KLockedAdd acquires the global lock, adds V to the protected counter
	// (read + synchronous store), and releases — racy upgrades on the lock
	// word plus serialized true sharing on the counter.
	KLockedAdd OpKind = "lk+"
	// KRacyStore plain-stores V to racy word A%8: multiple writers race, so
	// the word is excluded from the SC final-value check (the golden-memory
	// oracle still validates every byte).
	KRacyStore OpKind = "rst"
	// KRacyLoad reads racy word A%8.
	KRacyLoad OpKind = "rld"
	// KPrivStore stores V (Sz bytes, Sz-aligned) into the thread's private
	// region at an offset derived from A. Single writer: SC-checkable.
	KPrivStore OpKind = "pst"
	// KPrivLoad reads 8 bytes from the thread's private region.
	KPrivLoad OpKind = "pld"
	// KReduce accumulates V into reduction word A%8 (UseReduction programs).
	KReduce OpKind = "red"
	// KCompute spends A%24+1 cycles of local computation (spacing).
	KCompute OpKind = "cmp"
	// KPrefetch prefetches falsely shared line A%numFSLines (touches no
	// bytes — exercises the zero-length metadata path).
	KPrefetch OpKind = "pf"
)

// OpSpec is one operation of a generated thread. A is a free parameter whose
// meaning depends on the kind (slot/word/offset selector), Sz a size in
// bytes, V a value/delta.
type OpSpec struct {
	K  OpKind `json:"k"`
	A  int    `json:"a,omitempty"`
	Sz int    `json:"s,omitempty"`
	V  uint64 `json:"v,omitempty"`
}

// FaultSpec is the JSON form of network.FaultPlan.
type FaultSpec struct {
	Seed        uint64 `json:"seed,omitempty"`
	MaxJitter   uint64 `json:"jitter,omitempty"`
	BurstPeriod uint64 `json:"burstPeriod,omitempty"`
	BurstLen    uint64 `json:"burstLen,omitempty"`
}

// Plan converts the spec to a network fault plan (nil when it injects
// nothing).
func (f FaultSpec) Plan() *network.FaultPlan {
	fp := &network.FaultPlan{Seed: f.Seed, MaxJitter: f.MaxJitter, BurstPeriod: f.BurstPeriod, BurstLen: f.BurstLen}
	if !fp.Enabled() {
		return nil
	}
	return fp
}

// SabotageSpec is the JSON form of network.Sabotage: deliberately mistreat
// the Nth message with the given opcode name ("drop", "wedge" or "corrupt").
// Used only to validate that the oracles catch real protocol bugs.
type SabotageSpec struct {
	Mode string `json:"mode"`
	Op   string `json:"op"`
	Nth  int    `json:"nth"`
}

// Sabotage converts the spec to a network sabotage hook.
func (s *SabotageSpec) Sabotage() (*network.Sabotage, error) {
	if s == nil {
		return nil, nil
	}
	var mode network.SabotageMode
	switch s.Mode {
	case "drop":
		mode = network.SabotageDrop
	case "wedge":
		mode = network.SabotageWedge
	case "corrupt":
		mode = network.SabotageCorrupt
	default:
		return nil, fmt.Errorf("fuzz: unknown sabotage mode %q", s.Mode)
	}
	op, err := opByName(s.Op)
	if err != nil {
		return nil, err
	}
	return &network.Sabotage{Mode: mode, Op: op, Nth: s.Nth}, nil
}

// opByName resolves a message opcode by its wire name (e.g. "InvAck").
func opByName(name string) (network.Op, error) {
	for op := network.Op(0); op.String() != fmt.Sprintf("Op(%d)", int(op)); op++ {
		if op.String() == name {
			return op, nil
		}
	}
	return 0, fmt.Errorf("fuzz: unknown opcode %q", name)
}

// Program is one fully determined fuzz case: workload, system shape and
// fault schedule. It is plain data — JSON round-trippable, shrinkable, and
// replayable bit-for-bit.
type Program struct {
	// Seed is the generator seed this program came from (provenance only;
	// execution depends solely on the fields below).
	Seed uint64 `json:"seed"`

	// Protocol is "baseline", "fsdetect" or "fslite" (coherence.ParseProtocol).
	Protocol string `json:"protocol"`

	// Hostile shrinks the caches and detection thresholds (tiny L1/LLC/SAM,
	// low TauP) so evictions, recalls and privatization churn happen within
	// a few dozen operations.
	Hostile bool `json:"hostile,omitempty"`

	// L2 adds a private victim L2; NonInclusive switches the LLC to the
	// sparse-directory non-inclusive organization.
	L2           bool `json:"l2,omitempty"`
	NonInclusive bool `json:"nonInclusive,omitempty"`

	// UseReduction declares the reduction region and enables KReduce ops.
	UseReduction bool `json:"reduction,omitempty"`

	// BigMachine runs the program on a 64-core mesh machine with an
	// 8-slice address-interleaved LLC (tiny per-slice capacity, so
	// directory recalls constantly cross slice boundaries).
	BigMachine bool `json:"bigMachine,omitempty"`

	// Threads holds one operation list per worker thread (at most 7; one
	// more core runs the checker).
	Threads [][]OpSpec `json:"threads"`

	// Faults is the delivery perturbation schedule.
	Faults FaultSpec `json:"faults"`

	// Sabotage, when non-nil, injects a deliberate protocol bug (oracle
	// validation runs only).
	Sabotage *SabotageSpec `json:"sabotage,omitempty"`
}

// maxWorkers is the worker-thread ceiling: 7 workers + 1 checker core on the
// 8-core Table II system.
const maxWorkers = 7

// Validate checks structural limits (thread count, op kinds).
func (p *Program) Validate() error {
	if _, err := coherence.ParseProtocol(p.Protocol); err != nil {
		return fmt.Errorf("fuzz: %w", err)
	}
	if len(p.Threads) == 0 || len(p.Threads) > maxWorkers {
		return fmt.Errorf("fuzz: %d worker threads (want 1..%d)", len(p.Threads), maxWorkers)
	}
	if _, err := p.Sabotage.Sabotage(); p.Sabotage != nil && err != nil {
		return err
	}
	for t, ops := range p.Threads {
		for i, op := range ops {
			switch op.K {
			case KFSAdd, KFSLoad, KSharedAdd, KLockedAdd, KRacyStore, KRacyLoad,
				KPrivStore, KPrivLoad, KReduce, KCompute, KPrefetch:
			default:
				return fmt.Errorf("fuzz: thread %d op %d: unknown kind %q", t, i, op.K)
			}
		}
	}
	return nil
}

// Ops returns the total operation count across all threads.
func (p *Program) Ops() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t)
	}
	return n
}

// Marshal encodes the program as indented JSON (repro files).
func (p *Program) Marshal() []byte {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		panic(err) // Program contains only marshalable fields
	}
	return append(b, '\n')
}

// Unmarshal decodes and validates a repro file.
func Unmarshal(data []byte) (*Program, error) {
	var p Program
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fuzz: bad repro: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// clone deep-copies the program (the shrinker mutates candidates).
func (p *Program) clone() *Program {
	q := *p
	q.Threads = make([][]OpSpec, len(p.Threads))
	for i, t := range p.Threads {
		q.Threads[i] = append([]OpSpec(nil), t...)
	}
	if p.Sabotage != nil {
		s := *p.Sabotage
		q.Sabotage = &s
	}
	return &q
}

func (p *Program) String() string {
	return fmt.Sprintf("seed=%d protocol=%s threads=%d ops=%d jitter=%d burst=%d/%d hostile=%v l2=%v nonincl=%v red=%v",
		p.Seed, p.Protocol, len(p.Threads), p.Ops(), p.Faults.MaxJitter,
		p.Faults.BurstLen, p.Faults.BurstPeriod, p.Hostile, p.L2, p.NonInclusive, p.UseReduction)
}
