package sim

// Conservative parallel discrete-event engine (-engine=parallel).
//
// The machine is partitioned into K shards, each owning a contiguous range
// of cores (with their L1s) and of LLC/directory slices. Components interact
// across shards only through network messages, and the network guarantees a
// minimum delivery latency L (the flat fabric's Latency, or one hop on a
// ring/mesh — see PROTOCOL.md §"Network timing & lookahead"). A message sent
// at cycle c can therefore never need delivery before c+L, which makes L a
// conservative lookahead: the engine advances time in epochs of width L, and
// within an epoch every shard simulates its own components independently on
// its own OS thread. Each shard is stepped by the same due-only stepper the
// sequential engines use (step.go), under the skip policy and restricted to
// local events; this file adds only the epochs, the workers and the replay.
//
// Correctness (byte-identical results, proven by TestEngineEquivalence*)
// rests on deferred-send replay: during an epoch a shard's network front
// records every send and receive with its global position (cycle, component
// tick rank, intra-tick index) instead of admitting it. At the epoch barrier
// the coordinator merges all shards' operation streams in that global order
// — exactly the order the sequential engines perform them — and replays the
// merged stream through the master network, which runs the full sequential
// admission path (sequence numbering, topology routing and link contention,
// per-channel FIFO clamps, statistics, in-flight peak tracking) and routes
// each message into the destination shard's inbox. Per-shard statistics sets
// merge deterministically at the end of the run; the in-flight peak, the
// only globally order-sensitive counter, is maintained by the master network
// during replay.

import (
	"fmt"
	"runtime"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// parallelShards decides whether cfg can run under the parallel engine and
// with how many shards; 0 means "construct sequentially" (the run falls back
// to EngineSkip). Fault injection, observability attachments and the
// verification oracles are inherently order-sensitive mid-cycle, so those
// configurations stay sequential; their engine equivalence is covered by the
// naive-vs-skip matrix.
func parallelShards(cfg Config) int {
	if cfg.Engine != EngineParallel {
		return 0
	}
	if cfg.Faults != nil || cfg.Obs != nil || cfg.Forensics != nil || cfg.CheckOracle || cfg.CheckSWMR {
		return 0
	}
	p := cfg.Params
	if minDeliveryLatency(p) < 1 {
		return 0
	}
	k := cfg.Shards
	if k <= 0 {
		// One shard per 8 cores: big machines parallelize, the Table II
		// 8-core default degenerates to a single shard (still exercising
		// the deferred-replay path).
		k = p.Cores / 8
	}
	if k < 1 {
		k = 1
	}
	if k > p.Cores {
		k = p.Cores
	}
	if k > 16 {
		k = 16
	}
	return k
}

// minDeliveryLatency mirrors network.MinDeliveryLatency from Params alone
// (needed before the network exists).
func minDeliveryLatency(p coherence.Params) uint64 {
	if p.Topology != network.TopoFlat {
		return p.HopLatencyOrDefault()
	}
	return p.NetLatency
}

// parShard is one worker's shard of the machine plus its epoch bookkeeping.
type parShard struct {
	shard
	id         int
	lastActive uint64      // last cycle actually stepped (a local event fired)
	quiet      bool        // shard quiescent at epoch end
	cmd        chan uint64 // epoch-end commands from the coordinator
}

// parRunner coordinates the shard workers.
type parRunner struct {
	s       *System
	shards  []*parShard
	recs    []*network.Recorder
	owner   []*parShard // NodeID -> owning shard
	done    chan int
	deliver func(m *network.Msg, readyAt uint64)
	started bool
}

// newParRunner builds the shard skeletons (networks, stats sets, recorders,
// memory partitions) before component construction; System.bindShards
// attaches the components afterwards.
func newParRunner(s *System, k int) *parRunner {
	p := s.cfg.Params
	pr := &parRunner{s: s, done: make(chan int, k)}
	for i := 0; i < k; i++ {
		sh := &parShard{
			shard: shard{
				clock: new(uint64),
				net:   network.New(p.Nodes(), p.NetLatency, p.BlockSize, stats.NewSet()),
				rec:   &network.Recorder{},
				stats: stats.NewSet(),
				mem:   memsys.NewMemory(p.BlockSize),
			},
			id:  i,
			cmd: make(chan uint64, 1),
		}
		sh.net.SetRecorder(sh.rec)
		pr.shards = append(pr.shards, sh)
		pr.recs = append(pr.recs, sh.rec)
	}
	pr.owner = make([]*parShard, p.Nodes())
	for i := 0; i < p.Cores; i++ {
		pr.owner[i] = pr.shards[i*k/p.Cores]
	}
	for j := 0; j < p.Slices; j++ {
		pr.owner[p.Cores+j] = pr.shards[j*k/p.Slices]
	}
	pr.deliver = func(m *network.Msg, readyAt uint64) {
		pr.owner[m.Dst].net.Deliver(m, readyAt)
	}
	return pr
}

// start launches one worker goroutine per shard.
func (pr *parRunner) start() {
	if pr.started {
		return
	}
	pr.started = true
	for _, sh := range pr.shards {
		go sh.serve(pr.done)
	}
}

// stop terminates the workers (they drain their command channels).
func (pr *parRunner) stop() {
	if !pr.started {
		return
	}
	pr.started = false
	for _, sh := range pr.shards {
		close(sh.cmd)
	}
}

// run executes the epoch loop to completion and returns the final cycle —
// the cycle after which the sequential engines would first have found the
// machine quiescent.
//
// Two refinements keep the loop competitive with the sequential engines even
// on a single hardware thread. First, on a GOMAXPROCS=1 host the coordinator
// executes the shards inline instead of paying a goroutine barrier per epoch
// (the command/done channel round-trips dominate at W=4); the per-shard work
// is identical either way, so results are byte-equal by construction.
// Second, an epoch's end is stretched to E+W, where E is the earliest local
// event or delivered arrival across all shards: every deferred send inside
// the epoch happens at a cycle >= E, so its delivery deadline is >= E+W and
// the conservative lookahead still holds. When the whole machine is idle
// until some distant E this collapses arbitrarily many W-wide epochs into
// one, recovering the global idle-skipping the sequential EngineSkip enjoys.
func (pr *parRunner) run(name string, maxCycles uint64) (uint64, error) {
	inline := runtime.GOMAXPROCS(0) == 1
	if !inline {
		pr.start()
		defer pr.stop()
	}
	w := pr.s.net.MinDeliveryLatency()
	t := uint64(1)
	for {
		if t > maxCycles {
			return 0, fmt.Errorf("%w at cycle %d (%s)", ErrDeadlock, maxCycles+1, name)
		}
		pr.s.pollCancel()
		if pr.s.stopReason != "" {
			return 0, fmt.Errorf("%w: %s (%s)", ErrStopped, pr.s.stopReason, name)
		}
		// Stretch the epoch: no shard has an event before wake, so deferred
		// sends can only happen at cycles >= wake and end = wake+W keeps
		// every delivery deadline at or beyond the next barrier.
		wake := uint64(coherence.NoEvent)
		for _, sh := range pr.shards {
			wake = min(wake, sh.nextWake())
		}
		if wake < t {
			wake = t
		}
		end := wake + w
		if end > maxCycles+1 {
			end = maxCycles + 1
		}
		if inline {
			for _, sh := range pr.shards {
				sh.runEpoch(end)
			}
		} else {
			for _, sh := range pr.shards {
				sh.cmd <- end
			}
			for range pr.shards {
				<-pr.done
			}
		}
		// Barrier: replay all deferred network traffic in global order on
		// the master network, routing each message into its destination
		// shard's inbox for the coming epochs.
		pr.s.net.Replay(pr.recs, pr.deliver)
		quiet := pr.s.net.Pending() == 0
		for _, sh := range pr.shards {
			quiet = quiet && sh.quiet
		}
		if quiet {
			cycle := uint64(0)
			for _, sh := range pr.shards {
				if sh.lastActive > cycle {
					cycle = sh.lastActive
				}
			}
			return cycle, nil
		}
		t = end
	}
}

// mergeStats folds the per-shard statistics into the master set. Sum
// counters are partitioned across shards, so summing restores the sequential
// totals; peak counters merge by max (per-slice peaks are order-insensitive;
// the global in-flight peak lives on the master set already).
func (pr *parRunner) mergeStats() {
	for _, sh := range pr.shards {
		pr.s.stats.Merge(sh.stats)
	}
}

// serve is the worker loop: run one epoch per command.
func (sh *parShard) serve(done chan<- int) {
	for end := range sh.cmd {
		sh.runEpoch(end)
		done <- sh.id
	}
}

// runEpoch advances the shard through cycles [clock+1, end) under the skip
// policy, restricted to local events: component wake-ups and already-
// delivered message arrivals. All sends land in the recorder for barrier
// replay. The shard idles through the rest of the epoch, with the per-cycle
// stall accounting a sequential skip over the same span would apply.
func (sh *parShard) runEpoch(end uint64) {
	for {
		sh.skipTo(end)
		c := *sh.clock + 1
		if c >= end {
			break
		}
		sh.step(c, false)
		sh.lastActive = c
	}
	sh.quiet = sh.quiescent(false)
}
