package sim

import (
	"fmt"
	"reflect"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/network"
	"fscoherence/internal/sample"
)

// TestEngineEquivalenceAttachments compares the naive and skip policies on
// the hostile small-cache machine under shapes the root package's workload
// matrix cannot reach: a network fault plan, a tiny private L2, a tiny
// non-inclusive LLC data array and the out-of-order core (oracle and SWMR
// scanning on), plus an interval-sampled run and a checkpointed run (oracles
// off: warming commits bypass them and their state is not serialized).
// Cycles, every counter, the detection lists, the sampling report and the
// number of checkpoints must match exactly.
func TestEngineEquivalenceAttachments(t *testing.T) {
	cells := []struct {
		name  string
		ops   int
		shape func(*Config)
	}{
		{"faults-jitter", 250, func(c *Config) {
			c.Faults = &network.FaultPlan{Seed: 7, MaxJitter: 6}
		}},
		{"faults-burst", 250, func(c *Config) {
			c.Faults = &network.FaultPlan{Seed: 11, MaxJitter: 3, BurstPeriod: 97, BurstLen: 20}
		}},
		{"l2", 250, func(c *Config) {
			c.Params.L2Entries = 32
			c.Params.L2Ways = 4
			c.Params.L2HitCycles = 12
		}},
		{"noninclusive", 250, func(c *Config) {
			c.Params.NonInclusiveLLC = true
			c.Params.LLCEntriesSlice = 16
			c.Params.DirEntriesSlice = 64
			c.Params.DirWays = 8
		}},
		{"ooo", 250, func(c *Config) {
			c.OOO = true
			c.MSHRs = 8
		}},
		{"sampled", 2000, func(c *Config) {
			c.CheckOracle, c.CheckSWMR = false, false
			spec, err := sample.ParseSpec("500:1500")
			if err != nil {
				panic(err)
			}
			c.Sample = spec
		}},
		{"checkpointed", 2000, func(c *Config) {
			c.CheckOracle, c.CheckSWMR = false, false
			c.CheckpointEvery = 1000
		}},
	}
	const threads = 8
	for _, cell := range cells {
		for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
			cell, mode := cell, mode
			t.Run(fmt.Sprintf("%s-%v", cell.name, mode), func(t *testing.T) {
				t.Parallel()
				run := func(naive bool) (*Result, int) {
					cfg := smallConfig(mode)
					cell.shape(&cfg)
					ckpts := 0
					if cfg.CheckpointEvery > 0 {
						cfg.CheckpointSink = func(*MachineState) error { ckpts++; return nil }
					}
					var ths []cpu.ThreadFunc
					for i := 0; i < threads; i++ {
						ths = append(ths, stressThread(i, threads, cell.ops, 9090))
					}
					return runPolicy(t, cfg, Workload{Name: cell.name, Threads: ths}, naive), ckpts
				}
				naive, naiveCkpts := run(true)
				skip, skipCkpts := run(false)
				if naive.Cycles != skip.Cycles {
					t.Errorf("cycles diverge: naive=%d skip=%d", naive.Cycles, skip.Cycles)
				}
				if !reflect.DeepEqual(naive.Stats.Snapshot(), skip.Stats.Snapshot()) {
					t.Error("counter snapshots diverge")
				}
				if !reflect.DeepEqual(naive.Detections, skip.Detections) {
					t.Errorf("detections diverge:\nnaive: %v\nskip:  %v", naive.Detections, skip.Detections)
				}
				if !reflect.DeepEqual(naive.Sampled, skip.Sampled) {
					t.Errorf("sampling reports diverge:\nnaive: %+v\nskip:  %+v", naive.Sampled, skip.Sampled)
				}
				if naiveCkpts != skipCkpts {
					t.Errorf("checkpoint counts diverge: naive=%d skip=%d", naiveCkpts, skipCkpts)
				}
				switch cell.name {
				case "sampled":
					if skip.Sampled == nil || skip.Sampled.Windows < 2 {
						t.Errorf("sampled run crossed too few windows: %+v", skip.Sampled)
					}
				case "checkpointed":
					if skipCkpts < 2 {
						t.Errorf("checkpointed run wrote %d checkpoints, want several", skipCkpts)
					}
				}
			})
		}
	}
}
