package sim

// The stepping core.
//
// A shard is the machine's components plus the due-only stepper that
// advances them under one of two policies:
//
//   - skip (the default): tick only the components that are due, and
//     fast-forward over cycles in which nothing is;
//   - naive: every component is due every cycle and nothing is skipped. An
//     installed cycle hook selects it, since the hook must observe every
//     cycle; tests install a no-op hook to run it as the reference the skip
//     policy is proven against.
//
// A component is due at cycle c when its cached NextEvent is <= c. A cached
// wake-up may be too early (the component ticks as a no-op) but never too
// late, so anything that changes a component's state outside its own tick —
// a warming window, Restore, lifting an issue hold — must mark every
// component due again (wakeAll). The naive policy keeps no caches, so a
// change of cycle hook does the same.

import (
	"fmt"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// noBudget is the access budget of an advance that runs to quiescence.
const noBudget = ^uint64(0)

// shard is the machine's components and their stepper.
type shard struct {
	net   *network.Network
	dirs  []*coherence.Dir
	l1s   []*coherence.L1
	cores []cpu.Core

	// Cached NextEvent per component, refreshed after each tick (a
	// component's wake-up only moves when it ticks). The zero value marks
	// everything due, so the first stepped cycle ticks the whole machine and
	// seeds the caches.
	dirNext  []uint64
	l1Next   []uint64
	coreNext []uint64
	l1Act    []bool // per-step scratch: which L1s (and cores) ticked
}

// newShard builds the stepper over the constructed components.
func newShard(net *network.Network, dirs []*coherence.Dir, l1s []*coherence.L1, cores []cpu.Core) *shard {
	return &shard{
		net: net, dirs: dirs, l1s: l1s, cores: cores,
		dirNext:  make([]uint64, len(dirs)),
		l1Next:   make([]uint64, len(l1s)),
		coreNext: make([]uint64, len(cores)),
		l1Act:    make([]bool, len(l1s)),
	}
}

// step runs cycle c in the fixed order: directory slices, then L1s, then
// cores. Under the naive policy every component ticks, and the caches are
// left alone since nothing reads them.
//
// Otherwise only the components that are due tick: one whose cached
// NextEvent lies beyond c would tick as a pure no-op (the contract whole-
// machine skipping is built on), so its tick is elided. Three details keep
// that sound. An elided core still needs the per-cycle stall accounting a
// no-op tick would have performed, which SkipIdle(1) supplies. A core and its
// L1 always tick as a pair — a core Submit schedules completions against its
// L1's clock (and a retry can only clear after L1 state changes), while an L1
// completion can unblock its core the same cycle — so either being due ticks
// both, and the L1's cache is refreshed after its core ticks. And delivered
// network arrivals are consumed inside L1 and directory ticks, so a due
// arrival ticks everything.
func (sh *shard) step(c uint64, naive bool) {
	sh.net.SetCycle(c)
	all := naive || sh.net.NextArrival() <= c
	for i, d := range sh.dirs {
		if all || sh.dirNext[i] <= c {
			d.Tick(c)
			if !naive {
				sh.dirNext[i] = d.NextEvent(c)
			}
		}
	}
	act := sh.l1Act
	for i, l := range sh.l1s {
		act[i] = all || sh.l1Next[i] <= c || sh.coreNext[i] <= c
		if act[i] {
			l.Tick(c)
		}
	}
	for i, co := range sh.cores {
		if !act[i] {
			co.SkipIdle(1)
			continue
		}
		co.Tick(c)
		if !naive {
			sh.coreNext[i] = co.NextEvent(c)
			sh.l1Next[i] = sh.l1s[i].NextEvent(c)
		}
	}
}

// nextWake reports the earliest cycle at which any component has self-driven
// work or a queued message becomes consumable; values at or before the
// current cycle mean work is already due (e.g. a MaxMsgsPerCycle-capped
// tick). Component wake-ups come from the caches, so this is a flat min, not
// a round of interface calls.
func (sh *shard) nextWake() uint64 {
	wake := sh.net.NextArrival()
	for _, v := range sh.dirNext {
		wake = min(wake, v)
	}
	for _, v := range sh.l1Next {
		wake = min(wake, v)
	}
	for _, v := range sh.coreNext {
		wake = min(wake, v)
	}
	return wake
}

// skipTo returns the cycle to fast-forward to from now: the last idle cycle
// before the earlier of the next wake-up and limit, with the skipped span's
// per-cycle stall accounting applied to every core. It returns now when the
// next cycle is due.
func (sh *shard) skipTo(now, limit uint64) uint64 {
	wake := min(sh.nextWake(), limit)
	if wake <= now+1 {
		return now
	}
	for _, c := range sh.cores {
		c.SkipIdle(wake - 1 - now)
	}
	return wake - 1
}

// wakeAll marks every component due, after their state changed outside
// their own ticks.
func (sh *shard) wakeAll() {
	clear(sh.dirNext)
	clear(sh.l1Next)
	clear(sh.coreNext)
}

// quiescent reports whether the machine has no work left: every core finished
// — or, with drain set, merely holds no outstanding access (issue is held at
// a window boundary) — every L1 and directory idle, and no message queued on
// its network.
func (sh *shard) quiescent(drain bool) bool {
	for _, c := range sh.cores {
		if drain {
			if io, ok := c.(*cpu.InOrder); ok && io.Outstanding() {
				return false
			}
		} else if !c.Finished() {
			return false
		}
	}
	if sh.net.Pending() != 0 {
		return false
	}
	for _, l := range sh.l1s {
		if !l.Idle() {
			return false
		}
	}
	for _, d := range sh.dirs {
		if !d.Idle() {
			return false
		}
	}
	return true
}

// advance is the one run loop: Run, the detailed
// windows of runSampled, the timed windows of runCheckpointed and their
// drains. It steps the machine until it is quiescent after a stepped cycle
// (drain selects the drain predicate; quiesced is then true) or until budget
// more L1D accesses have committed, checking the budget before each step.
// Between steps it polls cancellation, honours RequestStop, fails with
// ErrDeadlock past maxCycles and skips ahead.
func (s *System) advance(name string, maxCycles, budget uint64, drain bool) (quiesced bool, err error) {
	st := s.stats
	start := st.GetID(stats.IDL1DAccesses)
	for st.GetID(stats.IDL1DAccesses)-start < budget {
		s.cycle++
		if s.cycle > maxCycles {
			where := name
			if drain {
				where += ", draining"
			}
			return false, fmt.Errorf("%w at cycle %d (%s)", ErrDeadlock, s.cycle, where)
		}
		s.stepCycle()
		s.pollCancel()
		if s.stopReason != "" {
			return false, fmt.Errorf("%w: %s at cycle %d (%s)", ErrStopped, s.stopReason, s.cycle, name)
		}
		if s.seq.quiescent(drain) {
			return true, nil
		}
		s.skipAhead(maxCycles)
	}
	return false, nil
}

// naive reports whether the run uses the naive policy: a cycle hook is
// installed.
func (s *System) naive() bool { return s.cycleHook != nil }

// stepCycle runs one cycle: the cycle hook, the stepper, then the
// cycle-boundary work (SWMR scan, metrics sample).
func (s *System) stepCycle() {
	if s.cycleHook != nil {
		s.net.SetCycle(s.cycle) // the hook may inject network traffic
		s.cycleHook(s.cycle)
	}
	s.seq.step(s.cycle, s.naive())
	if s.cfg.CheckSWMR && s.cycle%s.cfg.SWMRPeriod == 0 {
		s.checkSWMR()
	}
	if m := s.metrics; m != nil && s.cycle%m.Interval == 0 {
		m.Sample(s.cycle, s.stats.Snapshot())
	}
}

// skipAhead advances the clock to the next wake-up under the skip
// policy. SWMR-scan and metrics-sample boundaries are wake candidates (their
// output embeds cycle numbers, and byte-identical output across policies is
// the contract), and so is maxCycles+1, so that ErrDeadlock fires at the same
// cycle as under the naive policy.
func (s *System) skipAhead(maxCycles uint64) {
	if s.naive() {
		return
	}
	limit := maxCycles + 1
	if s.cfg.CheckSWMR {
		limit = min(limit, nextMultiple(s.cycle, s.cfg.SWMRPeriod))
	}
	if m := s.metrics; m != nil {
		limit = min(limit, nextMultiple(s.cycle, m.Interval))
	}
	s.cycle = s.seq.skipTo(s.cycle, limit)
}

// nextMultiple returns the first multiple of period after now.
func nextMultiple(now, period uint64) uint64 { return now - now%period + period }
