package coherence

import (
	"fmt"

	"fscoherence/internal/coherence/spec"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
)

// Table-driven message dispatch, built at package init from the protocol
// tables in internal/coherence/spec. A message is dispatched by (observed
// state, opcode): legal pairs invoke the handler the spec's transition rows
// name (the handlers themselves enforce sub-case guards), impossible pairs
// panic with the spec's reason, and opcodes outside the FSM's event list
// panic as unexpected messages.

type dispatchEntry struct {
	legal bool
	why   string // reason dispatch must panic, when !legal
}

// Observed-state indices follow the spec FSMs' state declaration order.
const (
	numL1Obs  = 10
	numDirObs = 10
)

var (
	l1Actions  [network.NumOps]func(*L1, *network.Msg)
	l1Legal    [numL1Obs][network.NumOps]dispatchEntry
	dirActions [network.NumOps]func(*Dir, *network.Msg)
	dirLegal   [numDirObs][network.NumOps]dispatchEntry

	// Observed-state indices keyed by the controllers' state enums, resolved
	// once at init so dispatch does no name lookups per message.
	l1StableObs  [L1Prv + 1]int
	l1MSHRObs    [mshrWaitChk + 1]int
	l1WBObs      int
	dirAbsentObs int
	dirStableObs [DirPrv + 1]int
	dirTxnObs    [txnEvict + 1]int

	// Spec state names by index, for protocol-violation panics.
	l1ObsNames  []string
	dirObsNames []string
)

// obsIdx resolves an observed-state name against the spec's state list. A
// miss means a controller state exists that the spec tables don't cover —
// a map lookup would silently alias it to index 0, so fail loudly instead.
func obsIdx(idx map[string]int, fsm, name string) int {
	i, ok := idx[name]
	if !ok {
		panic(fmt.Sprintf("protocol spec: observed state %s.%s is not in internal/coherence/spec", fsm, name))
	}
	return i
}

func buildDispatch[C any](f *spec.FSM, methods map[string]func(C, *network.Msg),
	actions *[network.NumOps]func(C, *network.Msg)) (idx map[string]int, names []string, legal [][network.NumOps]dispatchEntry) {
	if err := f.Check(); err != nil {
		panic(fmt.Sprintf("protocol spec: %v", err))
	}
	idx = make(map[string]int, len(f.States))
	for i, s := range f.States {
		idx[s.Name] = i
		names = append(names, s.Name)
	}
	legal = make([][network.NumOps]dispatchEntry, len(f.States))
	for _, tr := range f.Transitions {
		fn, ok := methods[tr.Action]
		if !ok {
			panic(fmt.Sprintf("protocol spec: %s names unknown action %q for %v", f.Name, tr.Action, tr.Event))
		}
		actions[tr.Event] = fn // one action per event; FSM.Check enforced it
		legal[idx[tr.State]][tr.Event] = dispatchEntry{legal: true}
	}
	for _, im := range f.Impossible {
		legal[idx[im.State]][im.Event] = dispatchEntry{why: im.Why}
	}
	return idx, names, legal
}

func init() {
	l1Methods := map[string]func(*L1, *network.Msg){
		"onData":        (*L1).onData,
		"onDataPrv":     (*L1).onDataPrv,
		"onInvAck":      (*L1).onInvAck,
		"onUpgradeAck":  (*L1).onUpgradeAck,
		"onUpgradeNack": (*L1).onUpgradeNack,
		"onUpgAckPrv":   (*L1).onUpgAckPrv,
		"onAckPrv":      (*L1).onAckPrv,
		"onFwdGetS":     (*L1).onFwdGetS,
		"onFwdGetX":     (*L1).onFwdGetX,
		"onInv":         (*L1).onInv,
		"onTRPrv":       (*L1).onTRPrv,
		"onInvPrv":      (*L1).onInvPrv,
		"onWBAck":       (*L1).onWBAck,
	}
	l1Idx, names, l1leg := buildDispatch(spec.L1(), l1Methods, &l1Actions)
	if len(l1leg) != numL1Obs {
		panic("spec.L1 state count drifted from numL1Obs")
	}
	copy(l1Legal[:], l1leg)
	l1ObsNames = names
	for s := range l1StableObs {
		l1StableObs[s] = obsIdx(l1Idx, "L1", L1State(s).String())
	}
	for s := range l1MSHRObs {
		l1MSHRObs[s] = obsIdx(l1Idx, "L1", mshrState(s).String())
	}
	l1WBObs = obsIdx(l1Idx, "L1", "WB")

	dirMethods := map[string]func(*Dir, *network.Msg){
		"handleRequest":  (*Dir).handleRequest,
		"onWB":           (*Dir).onWB,
		"onPrvWB":        (*Dir).onPrvWB,
		"onCtrlWB":       (*Dir).onCtrlWB,
		"onInvAck":       (*Dir).onInvAck,
		"onXferOwnerAck": (*Dir).onXferOwnerAck,
		"onDataToDir":    (*Dir).onDataToDir,
		"onRepMD":        (*Dir).onRepMD,
		"onMDPhantom":    (*Dir).onMDPhantom,
	}
	dirIdx, names, dirleg := buildDispatch(spec.Dir(), dirMethods, &dirActions)
	if len(dirleg) != numDirObs {
		panic("spec.Dir state count drifted from numDirObs")
	}
	copy(dirLegal[:], dirleg)
	dirObsNames = names
	dirAbsentObs = obsIdx(dirIdx, "Dir", "absent")
	for s := range dirStableObs {
		dirStableObs[s] = obsIdx(dirIdx, "Dir", DirState(s).String())
	}
	for k := range dirTxnObs {
		dirTxnObs[k] = obsIdx(dirIdx, "Dir", dirTxnKind(k).String())
	}
}

// observedState computes the spec state index governing dispatch for block a:
// MSHR transaction > resident line (either private level) > WB entry > I.
func (l *L1) observedState(a memsys.Addr) int {
	if tx := l.mshrs[a]; tx != nil {
		return l1MSHRObs[tx.state]
	}
	if e := l.peekAny(a); e != nil && e.Payload.state != L1Invalid {
		return l1StableObs[e.Payload.state]
	}
	if _, ok := l.wb[a]; ok {
		return l1WBObs
	}
	return l1StableObs[L1Invalid]
}

// observedState computes the spec state index for the slice: absent when no
// entry exists, the transaction kind when busy, else the stable state.
func (d *Dir) observedState(a memsys.Addr) int {
	e := d.llc.Peek(a) // Peek block-aligns and leaves LRU/stats untouched
	if e == nil {
		return dirAbsentObs
	}
	if tx := e.Payload.txn; tx != nil {
		return dirTxnObs[tx.kind]
	}
	return dirStableObs[e.Payload.state]
}

// handle dispatches one incoming message through the spec tables.
func (l *L1) handle(m *network.Msg) {
	fn := l1Actions[m.Op]
	if fn == nil {
		panic(fmt.Sprintf("l1 %d: unexpected message %v", l.core, m))
	}
	idx := l.observedState(m.Addr)
	if ent := l1Legal[idx][m.Op]; !ent.legal {
		panic(fmt.Sprintf("l1 %d: protocol violation: %v observed in L1.%s (%s): %v",
			l.core, m.Op, l1ObsNames[idx], ent.why, m))
	}
	fn(l, m)
}

// handle dispatches one incoming message through the spec tables.
func (d *Dir) handle(m *network.Msg) {
	fn := dirActions[m.Op]
	if fn == nil {
		panic(fmt.Sprintf("dir %d: unexpected message %v", d.slice, m))
	}
	idx := d.observedState(m.Addr)
	if ent := dirLegal[idx][m.Op]; !ent.legal {
		panic(fmt.Sprintf("dir %d: protocol violation: %v observed in Dir.%s (%s): %v",
			d.slice, m.Op, dirObsNames[idx], ent.why, m))
	}
	fn(d, m)
}
