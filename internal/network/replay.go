package network

// Deferred-send recording and barrier replay: the machinery behind the
// conservative parallel engine (internal/sim, -engine=parallel).
//
// Each shard owns a private Network in deferred mode. During an epoch the
// shard's components interact with it exactly as with the real fabric, but
// SendAfter only records (message, extra, position) and Recv additionally
// logs each successful pop. At the epoch barrier the coordinator merges all
// shards' operation streams in global (cycle, component rank, intra-tick
// index) order — the exact order the sequential engines would have performed
// them — and replays the merged stream through the master Network. Replayed
// sends run the full sequential admission path (sequence numbering, topology
// routing, link contention, per-channel FIFO clamp, statistics, in-flight
// peak tracking) and are then routed into the destination shard's inbox;
// replayed receives decrement the master in-flight count at their original
// position. Every order-sensitive quantity therefore evolves bit-for-bit as
// under -engine=naive.

// netOp is one recorded network operation.
type netOp struct {
	msg   *Msg   // nil for a receive
	extra uint64 // send-side delay (SendAfter)
	cycle uint64
	rank  int32 // global tick rank of the component that performed the op
	idx   int32 // operation order within (cycle, rank)
}

// Recorder collects one shard's deferred network operations for an epoch.
// Each shard's stream is naturally sorted by (cycle, rank, idx): the shard
// steps cycles in order and ticks its components in global rank order.
type Recorder struct {
	ops   []netOp
	cycle uint64
	rank  int32
	idx   int32
}

// Begin marks the start of one component's tick: operations recorded until
// the next Begin belong to (cycle, rank) and are numbered in program order.
// A nil Recorder ignores it (a network that admits sends directly).
func (r *Recorder) Begin(cycle uint64, rank int32) {
	if r != nil {
		r.cycle, r.rank, r.idx = cycle, rank, 0
	}
}

func (r *Recorder) recordSend(m *Msg, extra uint64) {
	r.ops = append(r.ops, netOp{msg: m, extra: extra, cycle: r.cycle, rank: r.rank, idx: r.idx})
	r.idx++
}

func (r *Recorder) recordRecv() {
	r.ops = append(r.ops, netOp{cycle: r.cycle, rank: r.rank, idx: r.idx})
	r.idx++
}

// Pending reports the number of recorded, not-yet-replayed operations.
func (r *Recorder) Pending() int { return len(r.ops) }

// SetRecorder puts the network in deferred mode (nil restores direct mode).
func (n *Network) SetRecorder(r *Recorder) { n.rec = r }

// Deliver places an already-admitted message directly into dst's inbox with
// the given delivery cycle. The master network performed all admission
// accounting during replay; this only makes the message visible to the
// owning shard's Recv/Peek/NextArrival.
func (n *Network) Deliver(m *Msg, readyAt uint64) {
	n.inboxes[m.Dst].push(inflight{msg: m, readyAt: readyAt})
	n.noteOccupied(m.Dst)
	n.inflightNow++
}

// opLess orders operations by (cycle, rank, idx). Two streams never tie on
// (cycle, rank): a component belongs to exactly one shard.
func opLess(a, b *netOp) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.idx < b.idx
}

// Replay merges the recorders' operation streams in global order and applies
// them to the master network n. deliver receives each admitted message with
// its computed delivery cycle (the parallel engine pushes it into the
// destination shard's inbox). Recorders are drained and reset for the next
// epoch. Replay performs no allocations in steady state: the merge cursor
// and all operation buffers are reused.
func (n *Network) Replay(recs []*Recorder, deliver func(m *Msg, readyAt uint64)) {
	if cap(n.replayHeads) < len(recs) {
		n.replayHeads = make([]int, len(recs))
	}
	heads := n.replayHeads[:len(recs)]
	for i := range heads {
		heads[i] = 0
	}
	n.deliver = deliver
	savedNow := n.now
	for {
		best := -1
		for i, r := range recs {
			if heads[i] >= len(r.ops) {
				continue
			}
			if best < 0 || opLess(&r.ops[heads[i]], &recs[best].ops[heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		op := &recs[best].ops[heads[best]]
		heads[best]++
		if op.msg == nil {
			n.inflightNow-- // receive: shard already popped its local copy
			continue
		}
		n.now = op.cycle
		m := op.msg
		op.msg = nil
		n.SendAfter(m, op.extra)
	}
	n.now = savedNow
	n.deliver = nil
	for _, r := range recs {
		r.ops = r.ops[:0]
	}
}
