package coherence_test

import (
	"testing"

	. "fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// dirPuppet drives a single directory slice with hand-crafted core messages,
// deterministically reaching directory paths that depend on message order
// (writeback races, stray acks, recall crossings).
type dirPuppet struct {
	t     *testing.T
	p     Params
	net   *network.Network
	dir   *Dir
	st    *stats.Set
	cycle uint64
}

func newDirPuppet(t *testing.T, mode Protocol) *dirPuppet {
	p := DefaultParams()
	p.Cores = 4
	p.Slices = 1
	p.LLCEntriesSlice = 8
	p.LLCWays = 2
	st := stats.NewSet()
	net := network.New(p.Nodes(), p.NetLatency, p.BlockSize, st)
	var pol DirPolicy
	if mode != Baseline {
		cc := core.DefaultConfig(p.Cores, p.BlockSize, mode)
		cc.TauP = 4
		cc.TauR1 = 4
		pol = core.NewDirSide(cc, 0, st)
	}
	mem := memsys.NewMemory(p.BlockSize)
	return &dirPuppet{
		t: t, p: p, net: net, st: st,
		dir: NewDir(0, p, mode, net, mem, pol, st),
	}
}

func (dp *dirPuppet) step(n int) {
	for i := 0; i < n; i++ {
		dp.cycle++
		dp.net.SetCycle(dp.cycle)
		dp.dir.Tick(dp.cycle)
	}
}

// sendFrom injects a message from core c to the directory.
func (dp *dirPuppet) sendFrom(c int, m *network.Msg) {
	m.Src = dp.p.L1Node(c)
	m.Dst = dp.p.SliceNode(0)
	if m.Requestor == 0 && m.Op != network.OpInvAck {
		m.Requestor = dp.p.L1Node(c)
	}
	dp.net.Send(m)
	dp.step(int(dp.p.NetLatency) + 2)
}

// expectAt drains core c's inbox until op arrives.
func (dp *dirPuppet) expectAt(c int, op network.Op) *network.Msg {
	dp.t.Helper()
	node := dp.p.L1Node(c)
	for i := 0; i < 20000; i++ {
		if m := dp.net.Recv(node); m != nil {
			if m.Op == op {
				return m
			}
			continue
		}
		dp.step(1)
	}
	dp.t.Fatalf("core %d never received %v", c, op)
	return nil
}

const dblk = memsys.Addr(0x7000)

// warm fills dblk into the LLC and grants it exclusively to core c.
func (dp *dirPuppet) warm(c int) {
	dp.sendFrom(c, &network.Msg{Op: network.OpGetX, Addr: dblk, TouchedOff: 0, TouchedLen: 8})
	dp.step(int(dp.p.MemLatency) + 20)
	dp.expectAt(c, network.OpDataExcl)
}

func TestDirWritebackRaceWithForward(t *testing.T) {
	// Core 0 owns the block and its eviction WB is in flight when core 1's
	// GetX makes the directory forward to core 0. The directory must absorb
	// the WB, wait for the owner's transfer ack, and only then WBAck.
	dp := newDirPuppet(t, Baseline)
	dp.warm(0)

	// Core 1 requests; the directory forwards to core 0.
	dp.sendFrom(1, &network.Msg{Op: network.OpGetX, Addr: dblk, TouchedOff: 8, TouchedLen: 8})
	dp.expectAt(0, network.OpFwdGetX)

	// Core 0's (racing) eviction writeback arrives mid-transaction.
	data := make([]byte, 64)
	data[0] = 0xee
	dp.sendFrom(0, &network.Msg{Op: network.OpWB, Addr: dblk, Data: data, Dirty: true})
	// No WBAck yet: the transaction is still open.
	if m := dp.net.Recv(dp.p.L1Node(0)); m != nil && m.Op == network.OpWBAck {
		t.Fatal("WBAck before the forward completed")
	}

	// Core 0 services the forward from its writeback buffer.
	dp.sendFrom(0, &network.Msg{Op: network.OpXferOwnerAck, Addr: dblk})
	dp.expectAt(0, network.OpWBAck)
	if s, _ := dp.dir.StateOf(dblk); s != DirOwned {
		t.Fatalf("state after transfer = %v", s)
	}
}

func TestDirStrayInvAckTolerated(t *testing.T) {
	dp := newDirPuppet(t, Baseline)
	dp.warm(0)
	// An InvAck with no eviction in progress must be counted as stray, not
	// crash or corrupt state.
	dp.sendFrom(2, &network.Msg{Op: network.OpInvAck, Addr: dblk, Requestor: dp.p.SliceNode(0)})
	if dp.st.Get(stats.CtrDirStrayAcks) != 1 {
		t.Fatalf("stray acks = %d", dp.st.Get(stats.CtrDirStrayAcks))
	}
	if s, _ := dp.dir.StateOf(dblk); s != DirOwned {
		t.Fatal("state disturbed by stray ack")
	}
}

func TestDirUpgradeFromNonSharerNacked(t *testing.T) {
	dp := newDirPuppet(t, Baseline)
	dp.warm(0)
	// Core 2 was never a sharer; its (stale) upgrade must be Nacked.
	dp.sendFrom(2, &network.Msg{Op: network.OpUpgrade, Addr: dblk, TouchedOff: 0, TouchedLen: 8})
	dp.expectAt(2, network.OpUpgradeNack)
}

func TestDirRequestQueueingDuringForward(t *testing.T) {
	// Requests arriving while a forward transaction is open must queue and
	// then be served in order after completion.
	dp := newDirPuppet(t, Baseline)
	dp.warm(0)
	dp.sendFrom(1, &network.Msg{Op: network.OpGetX, Addr: dblk, TouchedOff: 8, TouchedLen: 8})
	dp.expectAt(0, network.OpFwdGetX)
	// Core 2 and 3 pile on while the transaction is open.
	dp.sendFrom(2, &network.Msg{Op: network.OpGetS, Addr: dblk, TouchedOff: 16, TouchedLen: 8})
	dp.sendFrom(3, &network.Msg{Op: network.OpGetS, Addr: dblk, TouchedOff: 24, TouchedLen: 8})
	if dp.st.Get("dir.pending_queued") < 2 {
		t.Fatalf("queued = %d, want 2", dp.st.Get("dir.pending_queued"))
	}
	// Owner acks the transfer (the data goes core-to-core and never touches
	// the directory); the queued GetS each get a forward to the new owner.
	dp.sendFrom(0, &network.Msg{Op: network.OpXferOwnerAck, Addr: dblk})
	dp.expectAt(1, network.OpFwdGetS)
}

func TestDirInclusionRecallCountsBothResponses(t *testing.T) {
	// Force an LLC eviction of a shared block: both sharers must be
	// invalidated (recall) and counted before the way is reused.
	dp := newDirPuppet(t, Baseline)
	// Two sharers of dblk.
	dp.sendFrom(0, &network.Msg{Op: network.OpGetS, Addr: dblk, TouchedOff: 0, TouchedLen: 8})
	dp.step(int(dp.p.MemLatency) + 20)
	dp.expectAt(0, network.OpDataExcl) // E grant
	dp.sendFrom(1, &network.Msg{Op: network.OpGetS, Addr: dblk, TouchedOff: 0, TouchedLen: 8})
	fwd := dp.expectAt(0, network.OpFwdGetS)
	dp.sendFrom(0, &network.Msg{Op: network.OpDataToDir, Addr: dblk, Data: make([]byte, 64)})
	_ = fwd
	dp.step(50)
	// Fill the second way of the set, then force the eviction of dblk (the
	// LRU way). Set stride for an 8-entry/2-way LLC is 4 blocks.
	stride := memsys.Addr(4 * 64)
	dp.sendFrom(2, &network.Msg{Op: network.OpGetS, Addr: dblk + stride, TouchedOff: 0, TouchedLen: 8})
	dp.step(int(dp.p.MemLatency) + 30)
	dp.expectAt(2, network.OpDataExcl)
	victim := dblk + 2*stride
	dp.sendFrom(3, &network.Msg{Op: network.OpGetS, Addr: victim, TouchedOff: 0, TouchedLen: 8})
	// The recall invalidations go to both sharers of dblk.
	inv0 := dp.expectAt(0, network.OpInv)
	inv1 := dp.expectAt(1, network.OpInv)
	if inv0.Requestor != dp.p.SliceNode(0) || inv1.Requestor != dp.p.SliceNode(0) {
		t.Fatal("recall invalidations must name the directory as requestor")
	}
	// One ack is not enough: core 3 must still be waiting.
	dp.sendFrom(0, &network.Msg{Op: network.OpInvAck, Addr: dblk, Requestor: dp.p.L1Node(0)})
	dp.step(int(dp.p.MemLatency) + 30)
	if m := dp.net.Peek(dp.p.L1Node(3)); m != nil && m.Op == network.OpDataExcl {
		t.Fatal("grant before both sharers acked the recall")
	}
	dp.sendFrom(1, &network.Msg{Op: network.OpInvAck, Addr: dblk, Requestor: dp.p.L1Node(1)})
	dp.step(int(dp.p.MemLatency) + 30)
	dp.expectAt(3, network.OpDataExcl)
	if _, present := dp.dir.StateOf(dblk); present {
		t.Fatal("evicted block still resident")
	}
}
