package fuzz

import (
	"fmt"
	"testing"
)

// dispatchPinned is the cycle count of each corpus program of the default
// protocol sweep, as last proven identical between the spec-table dispatch
// and the hand-written switches it replaced (no program fails).
var dispatchPinned = map[string]uint64{
	"seed1-baseline": 3375,
	"seed1-fsdetect": 3338,
	"seed1-fslite":   3610,
	"seed2-baseline": 16048,
	"seed2-fsdetect": 17068,
	"seed2-fslite":   18954,
	"seed3-baseline": 9008,
	"seed3-fsdetect": 9011,
	"seed3-fslite":   9011,
	"seed4-baseline": 3104,
	"seed4-fsdetect": 2974,
	"seed4-fslite":   3173,
	"seed5-baseline": 7402,
	"seed5-fsdetect": 8236,
	"seed5-fslite":   8236,
	"seed6-baseline": 5011,
	"seed6-fsdetect": 4181,
	"seed6-fslite":   4181,
	"seed7-baseline": 6694,
	"seed7-fsdetect": 7131,
	"seed7-fslite":   7605,
	"seed8-baseline": 14067,
	"seed8-fsdetect": 14568,
	"seed8-fslite":   13418,
}

// TestDispatchDifferential runs a corpus slice through the table-driven
// dispatch built from internal/coherence/spec and compares each outcome
// with the one pinned while the hand-written switch dispatch still existed
// and agreed with it: the same cycle count and no failure. The fuzz programs
// reach fault-injected races that the figure workloads never produce.
func TestDispatchDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, proto := range Protocols {
			seed, proto := seed, proto
			t.Run(fmt.Sprintf("seed%d-%s", seed, proto), func(t *testing.T) {
				t.Parallel()
				r := Execute(Generate(seed, proto), Options{})
				if want := dispatchPinned[fmt.Sprintf("seed%d-%s", seed, proto)]; r.Failure != nil || r.Cycles != want {
					t.Errorf("outcome moved: cycles=%d failure=%v, pinned cycles=%d and no failure", r.Cycles, r.Failure, want)
				}
			})
		}
	}
}
