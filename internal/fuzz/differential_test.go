package fuzz

import (
	"reflect"
	"slices"
	"testing"

	"fscoherence/internal/sim"
)

// naive selects the naive reference policy for one Execute: a no-op cycle
// hook makes every component tick every cycle.
func naive(opt Options) Options {
	opt.setup = func(s *sim.System) { s.SetCycleHook(func(uint64) {}) }
	return opt
}

// TestEngineDifferentialFuzz runs a slice of the fuzzsmoke corpus (seeds
// 1–8 of `fsfuzz -seeds 60`, fault injection on, every oracle attached)
// under the skip policy and under the naive reference, and demands
// byte-identical executions: the cycle count, the final tracked memory words
// and every counter.
func TestEngineDifferentialFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, proto := range Protocols {
			p := Generate(seed, proto)
			skip, ref := Execute(p, Options{}), Execute(p, naive(Options{}))
			if skip.Failure != nil || ref.Failure != nil {
				t.Fatalf("seed %d %s: skip failure %v, naive failure %v", seed, proto, skip.Failure, ref.Failure)
			}
			if skip.Cycles != ref.Cycles {
				t.Errorf("seed %d %s: cycles skip=%d naive=%d", seed, proto, skip.Cycles, ref.Cycles)
			}
			if !slices.Equal(skip.words, ref.words) {
				t.Errorf("seed %d %s: final words differ:\nskip  %#x\nnaive %#x", seed, proto, skip.words, ref.words)
			}
			if a, b := skip.stats.Snapshot(), ref.stats.Snapshot(); !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d %s: counters differ:\nskip  %v\nnaive %v", seed, proto, a, b)
			}
		}
	}
}
