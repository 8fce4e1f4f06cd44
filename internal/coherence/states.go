package coherence

import "fscoherence/internal/memsys"

// State names: the transient FSM states of the L1 controller (l1.go) and the
// directory (dir.go) print under the observed-state names of
// internal/coherence/spec, which dispatch.go resolves at init.
//
// Transient-state naming follows the convention of Sorin/Hill/Wood ("A Primer
// on Memory Consistency and Cache Coherence") used by the paper: IS_D is the
// I->S transition waiting for Data, IM_AD waits for Acks and Data, SM_A waits
// for Acks. The directory's transients are named after the transaction kinds
// of dirTxn.

func (s mshrState) String() string {
	switch s {
	case mshrWaitData:
		return "IS_D"
	case mshrWaitDataExcl:
		return "IM_AD"
	case mshrWaitUpgrade:
		return "SM_A"
	case mshrWaitChk:
		return "PRV_CHK"
	}
	return "mshr?"
}

func (k dirTxnKind) String() string {
	switch k {
	case txnFwd:
		return "FWD"
	case txnMemFill:
		return "MEM_FILL"
	case txnPrvInit:
		return "PRV_INIT"
	case txnPrvTerm:
		return "PRV_TERM"
	case txnEvict:
		return "EVICT"
	}
	return "txn?"
}

// DirEntry is a snapshot of one directory entry (ForEachEntry).
type DirEntry struct {
	Addr    memsys.Addr
	State   DirState
	Owner   int            // valid when State == DirOwned
	Sharers memsys.CoreSet // core bitset: S sharers, or PRV sharers when State == DirPrv
	Busy    bool           // a transaction is in progress on the entry
	HasData bool           // the LLC data array holds the block
}

// ForEachEntry visits a snapshot of every directory entry in this slice
// (invariant checking: the fuzzing harness cross-checks directory and L1
// states at quiescence).
func (d *Dir) ForEachEntry(fn func(DirEntry)) {
	d.llc.ForEach(func(e *memsys.Entry[dirLine]) {
		ln := &e.Payload
		fn(DirEntry{
			Addr:    e.Tag,
			State:   ln.state,
			Owner:   ln.owner,
			Sharers: ln.sharers,
			Busy:    ln.txn != nil,
			HasData: ln.hasData,
		})
	})
}
