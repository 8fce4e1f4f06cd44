// Package sim assembles and runs a complete simulated system: cores, L1
// controllers, interconnect, LLC/directory slices and backing memory, with
// optional FSDetect/FSLite policies attached, a golden-memory oracle and an
// SWMR invariant checker for the test suite.
package sim

import (
	"errors"
	"fmt"

	"fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/cpu"
	"fscoherence/internal/forensics"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/sample"
	"fscoherence/internal/stats"
)

// Config describes one simulation run.
type Config struct {
	Params coherence.Params
	Mode   coherence.Protocol

	// Core holds the FSDetect/FSLite tunables; ignored in Baseline mode.
	// Cores/BlockSize/Mode are filled in from Params automatically.
	Core core.Config

	// OOO selects the out-of-order core model with the given width and ROB
	// size; MSHRs sets the per-L1 miss concurrency (1 for in-order).
	OOO      bool
	OOOWidth int
	ROBSize  int
	MSHRs    int

	// CheckOracle verifies every load against a byte-granular golden
	// memory; CheckSWMR scans coherence states every SWMRPeriod cycles.
	CheckOracle bool
	CheckSWMR   bool
	SWMRPeriod  uint64

	// MaxCycles aborts the run as deadlocked when exceeded (0 = 500M).
	MaxCycles uint64

	// Faults, when non-nil, installs a deterministic network fault-injection
	// plan (seeded delivery jitter and burst delays; see network.FaultPlan
	// and internal/fuzz). Injection stays within the protocol-legal delivery
	// contract, so all oracles must still hold.
	Faults *network.FaultPlan

	// Obs attaches the unified observability layer (event tracing and
	// interval metrics). Nil disables it entirely at zero per-event cost.
	Obs *obs.Obs

	// Forensics attaches the per-line flight recorder (access heatmaps,
	// decision timelines, repair-efficacy attribution). Nil disables it
	// entirely at zero per-event cost.
	Forensics *forensics.Recorder

	// Sample enables SMARTS-style interval sampling: detailed windows of
	// Sample.Detailed committed accesses (full timing under the skip policy)
	// alternate with functional-warming windows of Sample.Warming accesses (no
	// timing; see coherence.Warmer). Timing-domain counters are estimated from
	// the detailed windows with confidence intervals (Result.Sampled); all
	// other counters accrue exactly. Requires the in-order two-level inclusive
	// machine with no observers (see sampled.go for the full gating).
	Sample sample.Spec

	// CheckpointEvery enables periodic checkpointing: for detailed runs, a
	// drain boundary every N committed L1D accesses; for sampled runs, a
	// snapshot at the first existing window boundary after N accesses (no
	// extra drains). 0 disables. The cadence is part of the run's semantics:
	// drains perturb timing, so byte-equality is defined per cadence (see
	// checkpoint.go). Requires the same machine shape as sampling plus no
	// oracles/observers/faults/obs/forensics.
	CheckpointEvery uint64

	// CheckpointSink receives the machine state at each checkpoint boundary.
	// A sink error aborts the run with ErrStopped. Nil with CheckpointEvery
	// set keeps the boundaries (cadence semantics) without snapshotting —
	// how a resumed run that no longer writes checkpoints stays
	// byte-identical to its donor.
	CheckpointSink func(*MachineState) error

	// Cancel, when non-nil, is polled roughly once per loop iteration; when
	// it returns true the run aborts with ErrStopped.
	// Unlike RequestStop it may be flipped from another goroutine (the
	// runner's watchdog) as long as the func itself is race-free (e.g. an
	// atomic load).
	Cancel func() bool
}

// DefaultConfig returns a Table II system in the given protocol mode with
// verification disabled.
func DefaultConfig(mode coherence.Protocol) Config {
	p := coherence.DefaultParams()
	return Config{
		Params:     p,
		Mode:       mode,
		Core:       core.DefaultConfig(p.Cores, p.BlockSize, mode),
		OOOWidth:   8,
		ROBSize:    192,
		MSHRs:      1,
		SWMRPeriod: 64,
	}
}

// Workload supplies one thread function per core. Threads with index >=
// len(Threads) idle. A nil entry also idles.
type Workload struct {
	Name    string
	Threads []cpu.ThreadFunc

	// ReductionRegions are §VII reduction declarations registered with
	// every directory slice (FSDetect/FSLite modes).
	ReductionRegions []coherence.AddrRange
}

// Result summarizes a completed run.
type Result struct {
	Name       string
	Mode       coherence.Protocol
	Cycles     uint64
	Stats      *stats.Set
	Detections []core.Detection

	// Contended lists contended truly-shared lines (typically lock words) —
	// the §VII detection extension.
	Contended []core.Detection

	// OracleViolations and SWMRViolations are non-empty only when the
	// corresponding checks were enabled and a protocol bug was observed.
	OracleViolations []string
	SWMRViolations   []string

	// Sampled is non-nil for interval-sampled runs (Config.Sample): the
	// per-counter estimates with confidence intervals, plus window accounting.
	// For sampled runs, Cycles and the timing-domain counters in Stats hold
	// the rounded estimate means.
	Sampled *SampledRun
}

// System is an assembled simulation ready to run.
type System struct {
	cfg    Config
	stats  *stats.Set
	net    *network.Network
	mem    *memsys.Memory
	l1s    []*coherence.L1
	dirs   []*coherence.Dir
	cores  []cpu.Core
	oracle *memsys.Oracle
	cycle  uint64

	dirPolicies []*core.DirSide
	pams        []*core.PAM
	swmrBad     []string

	// resumedSample, set by Restore on a sampled checkpoint, carries the
	// estimator state runSampled re-seeds before its loop.
	resumedSample *SampleState

	// tracer / metrics are the unified observability attachments (nil when
	// cfg.Obs is nil or lacks the corresponding half).
	tracer  *obs.Tracer
	metrics *obs.Metrics

	// observerInstalled records whether the commit observer is wired into
	// the L1s (done at construction when the oracle or tracer needs it, or
	// lazily by SetCommitTrace).
	observerInstalled bool

	// commitTrace, when set (tests), receives every architectural commit.
	commitTrace func(cycle uint64, core int, kind string, a memsys.Addr, v []byte)

	// cycleHook, when set (tests), runs at the start of every cycle.
	cycleHook func(cycle uint64)

	// boundaryHook, when set (tests), runs at every sampling window boundary,
	// right after the drain: the machine is architecturally quiescent when it
	// fires, so invariant oracles may scan freely.
	boundaryHook func(cycle uint64)

	// stopReason, when non-empty, aborts the run loop (RequestStop).
	stopReason string

	// seq is the whole machine as one shard: the stepper of both policies.
	seq *shard
}

// SetCommitTrace installs a commit hook (testing/debugging). The hook is fed
// by the same commit observer that drives KindCommit trace events; if the
// observer was not needed at construction it is installed now.
func (s *System) SetCommitTrace(fn func(cycle uint64, core int, kind string, a memsys.Addr, v []byte)) {
	s.commitTrace = fn
	s.ensureObserver()
}

// ensureObserver wires the commit observer into every L1 if absent.
func (s *System) ensureObserver() {
	if s.observerInstalled {
		return
	}
	s.observerInstalled = true
	ob := observer{s.oracle, s}
	for _, l1 := range s.l1s {
		l1.SetObserver(ob)
	}
}

// SetCycleHook installs a function invoked at the start of every cycle
// (testing: fault injection, external-socket accesses, live inspection). A
// hook selects the naive policy — every component ticks every cycle and none
// is skipped — so it may change any component's state. A no-op hook is how
// tests run the naive reference that the skip policy is proven against.
func (s *System) SetCycleHook(fn func(cycle uint64)) {
	s.cycleHook = fn
	s.seq.wakeAll() // the naive policy keeps no wake-up caches
}

// observer adapts the oracle and the commit trace to the coherence.Observer
// interface. The oracle may be nil (trace-only observer).
type observer struct {
	o *memsys.Oracle
	s *System
}

func (ob observer) OnLoadCommit(c int, a memsys.Addr, v []byte, issue uint64) {
	if ob.o != nil {
		// A miss-path load binds its value at the directory, anywhere in
		// [issue, commit]; the oracle accepts any value live in that window.
		ob.o.CheckLoadWindow(a, v, issue, ob.s.cycle,
			fmt.Sprintf("cycle %d core %d load", ob.s.cycle, c))
	}
	ob.s.commit(c, "load", a, v)
}
func (ob observer) OnStoreCommit(c int, a memsys.Addr, v []byte) {
	if ob.o != nil {
		ob.o.CommitStore(a, v, ob.s.cycle)
	}
	ob.s.commit(c, "store", a, v)
}
func (ob observer) OnReduceCommit(c int, a memsys.Addr, delta []byte) {
	if ob.o != nil {
		ob.o.CommitReduce(a, delta, ob.s.cycle)
	}
	ob.s.commit(c, "reduce", a, delta)
}

// commit routes one architectural commit to the tracer and the test hook.
// kind is one of the static strings "load"/"store"/"reduce", so building the
// event never allocates.
func (s *System) commit(c int, kind string, a memsys.Addr, v []byte) {
	if t := s.tracer; t != nil {
		var val uint64
		for i := 0; i < len(v) && i < 8; i++ {
			val |= uint64(v[i]) << (8 * i)
		}
		t.Emit(obs.Event{
			Cycle: s.cycle, Kind: obs.KindCommit, Core: int16(c), Slice: -1,
			Addr: a, Name: kind, Arg: val, Arg2: uint64(len(v)),
		})
	}
	if s.commitTrace != nil {
		s.commitTrace(s.cycle, c, kind, a, v)
	}
}

// New assembles a system for the workload.
func New(cfg Config, wl Workload) *System {
	p := cfg.Params
	st := stats.NewSet()
	s := &System{
		cfg:     cfg,
		stats:   st,
		net:     network.New(p.Nodes(), p.NetLatency, p.BlockSize, st),
		mem:     memsys.NewMemory(p.BlockSize),
		tracer:  cfg.Obs.GetTracer(),
		metrics: cfg.Obs.GetMetrics(),
	}
	p.ApplyTopology(s.net)
	s.net.SetTracer(s.tracer, p.Cores)
	if cfg.Faults != nil {
		s.net.SetFaults(cfg.Faults)
	}

	if cfg.CheckOracle {
		s.oracle = memsys.NewOracle(p.BlockSize)
	}

	cfg.Forensics.Begin(p.BlockSize, p.Cores)

	cc := cfg.Core
	cc.Cores = p.Cores
	cc.BlockSize = p.BlockSize
	cc.Mode = cfg.Mode
	cc.Trace = s.tracer
	cc.Forensics = cfg.Forensics

	for i := 0; i < p.Cores; i++ {
		var pol coherence.L1Policy
		if cfg.Mode != coherence.Baseline {
			ccl := cc
			ccl.Now = s.now
			pam := core.NewPAM(ccl, i, st)
			s.pams = append(s.pams, pam)
			pol = pam
		}
		l1 := coherence.NewL1(i, p, cfg.Mode, s.net, pol, st, nil)
		if cfg.MSHRs > 1 {
			l1.SetMaxMSHRs(cfg.MSHRs)
		}
		l1.SetObs(cfg.Obs)
		l1.SetForensics(cfg.Forensics)
		s.l1s = append(s.l1s, l1)
	}
	if cfg.CheckOracle || s.tracer != nil {
		s.ensureObserver()
	}
	for i := 0; i < p.Slices; i++ {
		var pol coherence.DirPolicy
		if cfg.Mode != coherence.Baseline {
			ccd := cc
			ccd.Now = s.now
			ds := core.NewDirSide(ccd, i, st)
			for _, r := range wl.ReductionRegions {
				ds.RegisterReduction(r)
			}
			s.dirPolicies = append(s.dirPolicies, ds)
			pol = ds
		}
		dir := coherence.NewDir(i, p, cfg.Mode, s.net, s.mem, pol, st)
		dir.SetObs(cfg.Obs)
		dir.SetForensics(cfg.Forensics)
		s.dirs = append(s.dirs, dir)
	}
	for i := 0; i < p.Cores; i++ {
		var fn cpu.ThreadFunc
		if i < len(wl.Threads) {
			fn = wl.Threads[i]
		}
		if fn == nil {
			fn = func(*cpu.Ctx) {}
		}
		if cfg.OOO {
			s.cores = append(s.cores, cpu.NewOOO(i, s.l1s[i], fn, cfg.OOOWidth, cfg.ROBSize, st))
		} else {
			s.cores = append(s.cores, cpu.NewInOrder(i, s.l1s[i], fn, st))
		}
	}
	s.seq = newShard(s.net, s.dirs, s.l1s, s.cores)
	// Checkpointing needs the result log armed from the very first committed
	// operation so threads can be replayed at any later snapshot (and so a
	// restored thread's re-seeded log keeps growing). Arming is free on the
	// shapes that can't checkpoint anyway (gated again at run time).
	if cfg.CheckpointEvery > 0 && !cfg.OOO {
		for _, c := range s.cores {
			if io, ok := c.(*cpu.InOrder); ok {
				io.SetRecorder(&cpu.OpRecorder{})
			}
		}
	}
	return s
}

// now reports the current cycle; it is the Now clock of the FSDetect/FSLite
// policies.
func (s *System) now() uint64 { return s.cycle }

// Stop terminates every core's thread coroutine. Run does this itself on
// every exit path; Stop is for callers that abandon an assembled system
// without running it (e.g. a failed checkpoint restore falling back to a
// freshly built cold system).
func (s *System) Stop() {
	for _, c := range s.cores {
		c.Stop()
	}
}

// Dir returns directory slice i (testing and multi-socket hooks).
func (s *System) Dir(i int) *coherence.Dir { return s.dirs[i] }

// L1 returns core i's L1 controller (testing).
func (s *System) L1(i int) *coherence.L1 { return s.l1s[i] }

// Net returns the interconnect (testing and fault-injection hooks).
func (s *System) Net() *network.Network { return s.net }

// CoreFinished reports whether core i's thread has run to completion
// (watchdog progress checks).
func (s *System) CoreFinished(i int) bool { return s.cores[i].Finished() }

// RequestStop asks the run loop to abort at the end of the current cycle
// with ErrStopped wrapping the given reason. Intended to be called from a
// cycle hook or commit trace (e.g. the fuzzing watchdog); safe to call more
// than once — the first reason wins.
func (s *System) RequestStop(reason string) {
	if s.stopReason == "" {
		s.stopReason = reason
	}
}

// ErrStopped is returned when a hook aborted the run via RequestStop.
var ErrStopped = errors.New("sim: stopped by hook")

// ErrDeadlock is returned when the simulation exceeds MaxCycles.
var ErrDeadlock = errors.New("sim: cycle limit exceeded (deadlock?)")

// DumpState summarizes every component's in-flight work (deadlock triage):
// queued network messages with their delivery cycles, every non-idle L1 and
// directory slice's FSM state, and unfinished cores.
func (s *System) DumpState() string {
	out := fmt.Sprintf("cycle=%d net.pending=%d\n", s.cycle, s.net.Pending())
	const maxMsgs = 48
	shown := 0
	s.net.ForEachInFlight(func(m *network.Msg, readyAt uint64) {
		shown++
		if shown > maxMsgs {
			return
		}
		out += fmt.Sprintf("  in-flight: %v readyAt=%d\n", m, readyAt)
	})
	if shown > maxMsgs {
		out += fmt.Sprintf("  ... %d more in-flight messages\n", shown-maxMsgs)
	}
	for _, l := range s.l1s {
		if d := l.DebugString(); d != "" {
			out += d + "\n"
		}
	}
	for _, d := range s.dirs {
		if ds := d.DebugString(); ds != "" {
			out += ds + "\n"
		}
	}
	for i, c := range s.cores {
		if !c.Finished() {
			out += fmt.Sprintf("core %d not finished\n", i)
		}
	}
	return out
}

// Run executes the simulation to completion.
func (s *System) Run(name string) (*Result, error) {
	// Terminate thread coroutines parked mid-operation if the run ends early
	// (deadlock, cycle guard); finished threads make this a no-op.
	defer func() {
		for _, c := range s.cores {
			c.Stop()
		}
	}()
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	if s.cfg.Sample.Enabled() {
		return s.runSampled(name, maxCycles)
	}
	if s.cfg.CheckpointEvery > 0 {
		return s.runCheckpointed(name, maxCycles)
	}
	if _, err := s.advance(name, maxCycles, noBudget, false); err != nil {
		return nil, err
	}
	return s.buildResult(name), nil
}

// buildResult closes out observability and assembles the Result from the
// system's final state (shared by the timed and sampled run loops).
func (s *System) buildResult(name string) *Result {
	s.stats.SetID(stats.IDCycles, s.cycle)
	// Close out observability: privatized episodes still open at the end of
	// the run emit their terminate event, then a final metrics sample
	// captures the run's closing counter values.
	for _, d := range s.dirs {
		d.FinalizeObs(s.cycle)
	}
	if m := s.metrics; m != nil {
		m.Sample(s.cycle, s.stats.Snapshot())
	}
	res := &Result{
		Name:   name,
		Mode:   s.cfg.Mode,
		Cycles: s.cycle,
		Stats:  s.stats,
	}
	for _, dp := range s.dirPolicies {
		res.Detections = append(res.Detections, dp.Detections()...)
		res.Contended = append(res.Contended, dp.ContendedLines()...)
	}
	if s.oracle != nil {
		res.OracleViolations = s.oracle.Violations()
	}
	res.SWMRViolations = s.swmrBad
	return res
}

// checkSWMR validates the single-writer/multiple-reader invariant across all
// L1s: at most one E/M copy of any block, never alongside S copies; PRV
// copies may coexist only with S copies mid-privatization, never with E/M.
func (s *System) checkSWMR() {
	if len(s.swmrBad) >= 16 {
		return
	}
	type count struct{ em, sh, prv int }
	m := make(map[memsys.Addr]*count)
	for _, l1 := range s.l1s {
		l1.ForEachLine(func(a memsys.Addr, st coherence.L1State) {
			c := m[a]
			if c == nil {
				c = &count{}
				m[a] = c
			}
			switch st {
			case coherence.L1Exclusive, coherence.L1Modified:
				c.em++
			case coherence.L1Shared:
				c.sh++
			case coherence.L1Prv:
				c.prv++
			}
		})
	}
	for a, c := range m {
		if c.em > 1 || (c.em > 0 && (c.sh > 0 || c.prv > 0)) {
			s.swmrBad = append(s.swmrBad,
				fmt.Sprintf("cycle %d block %v: EM=%d S=%d PRV=%d", s.cycle, a, c.em, c.sh, c.prv))
			if t := s.tracer; t != nil {
				t.Emit(obs.Event{Cycle: s.cycle, Kind: obs.KindOracle, Core: -1, Slice: -1, Addr: a, Name: "swmr"})
			}
		}
	}
}
