package sim

import (
	"fmt"
	"reflect"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/network"
)

// TestEngineEquivalenceAttachments compares the naive and skip engines on the
// hostile small-cache machine (oracle and SWMR scanning on) under shapes the
// root package's workload matrix cannot reach: a network fault plan, a tiny
// private L2, a tiny non-inclusive LLC data array and the out-of-order core.
// Cycles, every counter and the detection lists must match exactly.
func TestEngineEquivalenceAttachments(t *testing.T) {
	const threads, ops = 8, 250
	cells := []struct {
		name  string
		shape func(*Config)
	}{
		{"faults-jitter", func(c *Config) {
			c.Faults = &network.FaultPlan{Seed: 7, MaxJitter: 6}
		}},
		{"faults-burst", func(c *Config) {
			c.Faults = &network.FaultPlan{Seed: 11, MaxJitter: 3, BurstPeriod: 97, BurstLen: 20}
		}},
		{"l2", func(c *Config) {
			c.Params.L2Entries = 32
			c.Params.L2Ways = 4
			c.Params.L2HitCycles = 12
		}},
		{"noninclusive", func(c *Config) {
			c.Params.NonInclusiveLLC = true
			c.Params.LLCEntriesSlice = 16
			c.Params.DirEntriesSlice = 64
			c.Params.DirWays = 8
		}},
		{"ooo", func(c *Config) {
			c.OOO = true
			c.MSHRs = 8
		}},
	}
	for _, cell := range cells {
		for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
			cell, mode := cell, mode
			t.Run(fmt.Sprintf("%s-%v", cell.name, mode), func(t *testing.T) {
				t.Parallel()
				run := func(e Engine) *Result {
					cfg := smallConfig(mode)
					cell.shape(&cfg)
					cfg.Engine = e
					var ths []cpu.ThreadFunc
					for i := 0; i < threads; i++ {
						ths = append(ths, stressThread(i, threads, ops, 9090))
					}
					return mustRun(t, cfg, Workload{Name: cell.name, Threads: ths})
				}
				naive, skip := run(EngineNaive), run(EngineSkip)
				if naive.Cycles != skip.Cycles {
					t.Errorf("cycles diverge: naive=%d skip=%d", naive.Cycles, skip.Cycles)
				}
				if !reflect.DeepEqual(naive.Stats.Snapshot(), skip.Stats.Snapshot()) {
					t.Error("counter snapshots diverge")
				}
				if !reflect.DeepEqual(naive.Detections, skip.Detections) {
					t.Errorf("detections diverge:\nnaive: %v\nskip:  %v", naive.Detections, skip.Detections)
				}
			})
		}
	}
}
