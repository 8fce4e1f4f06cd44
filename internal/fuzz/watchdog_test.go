package fuzz

import (
	"strings"
	"testing"
)

// TestWatchdogDetectsWedge wedges the first Data response in flight (its
// delivery cycle pushed past any horizon) and checks the watchdog trips with
// a dump naming the stuck message and the waiting FSM — the artifact a
// protocol engineer debugs from — at the same cycle under the skip policy
// and the naive reference.
func TestWatchdogDetectsWedge(t *testing.T) {
	p := Generate(42, "fslite")
	p.Sabotage = &SabotageSpec{Mode: "wedge", Op: "Data", Nth: 1}
	opt := Options{StallCycles: 20_000}
	out := Execute(p, opt)
	if out.Failure == nil {
		t.Fatal("wedged Data message not detected")
	}
	if out.Failure.Kind != "stall" {
		t.Fatalf("kind = %s, want stall: %v", out.Failure.Kind, out.Failure)
	}
	ref := Execute(p, naive(opt))
	if ref.Failure == nil || ref.Failure.Kind != "stall" || ref.Cycles != out.Cycles {
		t.Fatalf("naive reference: cycle %d, failure %v; skip tripped at cycle %d", ref.Cycles, ref.Failure, out.Cycles)
	}
	for _, want := range []string{
		"watchdog trip",     // the per-core commit-age table
		"in-flight: Data",   // the wedged message itself
		"readyAt=",          // with its (sentinel) delivery cycle
		"state=IS_D",        // the MSHR stuck waiting for it
		"committed nothing", // the one-line diagnosis
	} {
		if !strings.Contains(out.Failure.Error(), want) {
			t.Errorf("dump lacks %q:\n%s", want, out.Failure.Error())
		}
	}
}

// TestWatchdogSparesLivelockFreeRun checks the watchdog does not trip on a
// clean run with heavy jitter (spinners keep committing loads, so per-core
// commit tracking stays quiet).
func TestWatchdogSparesLivelockFreeRun(t *testing.T) {
	p := Generate(42, "fslite")
	p.Faults.MaxJitter = 80
	out := Execute(p, Options{StallCycles: 20_000})
	if out.Failure != nil {
		t.Fatalf("clean jittered run failed: %v", out.Failure)
	}
}
