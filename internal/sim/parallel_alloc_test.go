package sim

import (
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
)

// allocThreads is a store/load/compute false-sharing mix (no atomics: the
// AtomicAdd convenience wrapper allocates its RMW closure in the workload
// driver, which would mask what this test measures — the engine itself).
// Under FSLite the falsely shared lines privatize during warmup, after which
// every access hits locally: the measured epochs exercise the full scan /
// skip / record / barrier-replay machinery with the protocol quiesced, so any
// allocation seen is the engine's own.
func allocThreads(n int) []cpu.ThreadFunc {
	var ths []cpu.ThreadFunc
	for t := 0; t < n; t++ {
		t := t
		ths = append(ths, func(c *cpu.Ctx) {
			slot := addr(t/8, 8*(t%8))
			priv := addr(64+t*4, 0)
			for i := 0; ; i++ {
				c.Store(slot, 8, uint64(i))
				c.Load(priv+memsys.Addr(64*(i%4)), 8)
				c.Compute(uint64(i % 5))
			}
		})
	}
	return ths
}

// TestSkipLoopDoesNotAllocate checks the sequential engines' run loop
// (advance: due-only stepping, cached wake-ups, skip-ahead and the
// quiescence check) is allocation-free in steady state, on the same mesh
// machine and workload as the parallel check below. `make allocsmoke` runs it.
func TestSkipLoopDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(coherence.FSLite)
	cfg.Params = cfg.Params.ScaleToCores(16)
	cfg.Params.Topology = network.TopoMesh
	s := New(cfg, Workload{Name: "skip-alloc", Threads: allocThreads(16)})
	t.Cleanup(s.Stop)
	if s.seq == nil {
		t.Fatal("sequential stepper not constructed")
	}
	window := func() {
		if _, err := s.advance("skip-alloc", 1<<40, 256, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		window() // warm-up: privatization episodes establish, pools fill
	}
	if n := testing.AllocsPerRun(500, window); n > 0 {
		t.Fatalf("steady-state skip loop allocated %.2f allocs/op", n)
	}
}

// TestParallelEpochDoesNotAllocate drives the parallel engine's epoch
// machinery inline (no worker goroutines, so the measurement sees every
// allocation) and checks the steady-state loop — per-shard event-driven
// stepping, deferred-send recording, and the barrier replay/merge — is
// allocation-free once recorder buffers, message freelists and inbox rings
// have warmed up. `make allocsmoke` runs this alongside the network
// round-trip check.
func TestParallelEpochDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(coherence.FSLite)
	cfg.Params = cfg.Params.ScaleToCores(16)
	cfg.Params.Topology = network.TopoMesh
	cfg.Engine = EngineParallel
	cfg.Shards = 4
	s := New(cfg, Workload{Name: "par-alloc", Threads: allocThreads(16)})
	if s.par == nil {
		t.Fatal("parallel engine not constructed")
	}
	pr := s.par
	w := s.net.MinDeliveryLatency()
	next := uint64(1)
	epoch := func() {
		end := next + w
		for _, sh := range pr.shards {
			sh.runEpoch(end)
		}
		s.net.Replay(pr.recs, pr.deliver)
		next = end
	}
	for i := 0; i < 2000; i++ {
		epoch() // warm-up: privatization episodes establish, pools fill
	}
	if n := testing.AllocsPerRun(500, epoch); n > 0 {
		t.Fatalf("steady-state epoch allocated %.2f allocs/op", n)
	}
}
