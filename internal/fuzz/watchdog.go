package fuzz

import (
	"fmt"

	"fscoherence/internal/memsys"
	"fscoherence/internal/sim"
)

// Watchdog is the liveness oracle: it watches per-core architectural commits
// and trips when any unfinished core stops committing for Stall cycles. This
// catches both deadlock (nothing commits anywhere) and livelock that a global
// progress check would miss — a core spinning on a lock or barrier keeps
// committing loads, so only the genuinely wedged core's clock stops.
//
// On a trip it snapshots the full system state — in-flight network messages
// with delivery cycles plus every non-idle L1/directory FSM (sim.DumpState)
// and the per-core commit ages — then aborts the run via sim.RequestStop.
type Watchdog struct {
	sys   *sim.System
	cores int
	stall uint64

	lastCommit []uint64 // cycle of each core's most recent commit (0 = none yet)

	tripped   bool
	tripCycle uint64
	reason    string
	dump      string
}

// checkEvery is the period of the stall scan, in cycles.
const checkEvery = 512

// NewWatchdog builds a watchdog for sys with the given stall threshold.
func NewWatchdog(sys *sim.System, cores int, stall uint64) *Watchdog {
	return &Watchdog{sys: sys, cores: cores, stall: stall, lastCommit: make([]uint64, cores)}
}

// Install wires the watchdog into the system's commit trace, which it claims
// for itself, and registers its stall scan as a periodic boundary, which
// leaves the run on the skip policy. It must be called before Run.
func (w *Watchdog) Install() {
	w.sys.SetCommitTrace(func(cycle uint64, core int, kind string, a memsys.Addr, v []byte) {
		w.lastCommit[core] = cycle
	})
	w.sys.OnPeriod(checkEvery, func(cycle uint64) {
		if !w.tripped {
			w.check(cycle)
		}
	})
}

// check scans for a stalled core and trips on the first one found.
func (w *Watchdog) check(cycle uint64) {
	for i := 0; i < w.cores; i++ {
		if w.sys.CoreFinished(i) {
			continue
		}
		if cycle-w.lastCommit[i] <= w.stall {
			continue
		}
		w.tripped = true
		w.tripCycle = cycle
		w.reason = fmt.Sprintf("core %d committed nothing for %d cycles (last commit at %d)",
			i, cycle-w.lastCommit[i], w.lastCommit[i])
		w.dump = w.describe(cycle) + w.sys.DumpState()
		w.sys.RequestStop("watchdog: " + w.reason)
		return
	}
}

// describe renders the per-core commit ages (part of the trip dump).
func (w *Watchdog) describe(cycle uint64) string {
	s := fmt.Sprintf("watchdog trip at cycle %d (stall threshold %d)\n", cycle, w.stall)
	for i := 0; i < w.cores; i++ {
		state := "running"
		if w.sys.CoreFinished(i) {
			state = "finished"
		}
		s += fmt.Sprintf("  core %d: %s, last commit at cycle %d (age %d)\n",
			i, state, w.lastCommit[i], cycle-w.lastCommit[i])
	}
	return s
}

// Tripped reports whether the watchdog fired.
func (w *Watchdog) Tripped() bool { return w.tripped }

// TripCycle returns the cycle of the trip (0 if none).
func (w *Watchdog) TripCycle() uint64 { return w.tripCycle }

// Reason returns the one-line trip diagnosis.
func (w *Watchdog) Reason() string { return w.reason }

// Dump returns the full state snapshot taken at the trip.
func (w *Watchdog) Dump() string { return w.dump }
