package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"fscoherence"
	"fscoherence/internal/energy"
	"fscoherence/internal/network"
	"fscoherence/internal/sample"
	"fscoherence/internal/sim"
	"fscoherence/internal/stats"
	"fscoherence/internal/workload"
)

// outcome is what one execution of a cell produced, on either path.
type outcome struct {
	err        error
	violations []string
	stats      *stats.Set
	sampled    *sim.SampledRun
	cycles     uint64
	energy     float64
	digest     string // canonical stats digest
}

// accesses returns the committed L1D accesses: for a sampled run, warmed
// plus detailed.
func (o *outcome) accesses() uint64 {
	if o.sampled != nil {
		return o.sampled.Accesses
	}
	return o.stats.Get(stats.CtrL1DAccesses)
}

// samples holds one phase's host measurements of one cell, in seconds
// (except the allocation counters).
type samples struct {
	wall   []float64 // fscoherence.Run, whole call
	setup  []float64 // BuildLabeled + sim.New, set-up-only repeats
	build  []float64 // BuildLabeled, decomposed path
	newSys []float64 // sim.New, decomposed path
	run    []float64 // (*sim.System).Run, decomposed path
	energy []float64 // energy.Default().Compute, decomposed path

	// Reference-kernel times and the calls measured against them, recorded
	// only when the phase asks (reference.go): wallRef is fscoherence.Run
	// and runRef (*sim.System).Run, each over the mean of the reference
	// times right before and after it.
	ref, wallRef, runRef []float64

	// Allocation and collector CPU time during fscoherence.Run, recorded
	// only when the phase asks.
	allocMB, mallocs, gcs []float64
	gcCPU, userCPU        []float64
}

// cellState is one cell's reference outcome and every check it failed,
// across all phases and paths.
type cellState struct {
	cell
	ref      *outcome
	failures []string
}

// phase is a stretch of timed rounds: the untraced measurement, or the
// traced one with spans and the CPU profile on.
type phase struct {
	per      []samples // indexed like bench.cells
	rounds   int
	memstats bool     // record allocation and collector time per fscoherence.Run
	spans    *spanLog // nil when the phase is untraced
	// reference times the reference kernel around every fscoherence.Run and
	// (*sim.System).Run call. Traced phases leave it off, so the kernel does
	// not enter the CPU profile.
	reference bool

	// setups is how many set-up-only repeats (BuildLabeled + sim.New,
	// discarded unrun) each cell adds per round; setup_s comes from them.
	setups int
}

// setupsPerRound is the number of set-up-only repeats an untraced phase
// adds per cell and round.
const setupsPerRound = 3

// bench runs one workload: every cell through both paths, one cell at a
// time, from one goroutine.
type bench struct {
	w     benchWorkload
	cells []*cellState
	rng   *rand.Rand

	// execs counts the decomposed and public executions of each cell while
	// the CPU profile runs, for the per-count profile costs.
	execs []int
}

func newBench(w benchWorkload, seed int64) *bench {
	b := &bench{w: w, rng: rand.New(rand.NewSource(seed)), execs: make([]int, len(w.cells))}
	for _, c := range w.cells {
		b.cells = append(b.cells, &cellState{cell: c})
	}
	return b
}

// verify runs the workload's oracle cell once; its time counts nowhere.
// It returns the verify cell's state so callers can tally it.
func (b *bench) verify() *cellState {
	vs := &cellState{cell: b.w.verify}
	res, err := fscoherence.Run(vs.bench, vs.opt)
	vs.check("verify", publicOutcome(res, err))
	return vs
}

// measure runs rounds until the budget is spent, at least minRounds. Each
// round visits every cell once, in a seed-drawn order.
func (b *bench) measure(ph *phase, budget time.Duration, minRounds int) {
	ph.per = make([]samples, len(b.cells))
	start := time.Now()
	for {
		for _, i := range b.rng.Perm(len(b.cells)) {
			b.runCell(i, ph)
		}
		ph.rounds++
		spent := time.Since(start)
		mean := spent / time.Duration(ph.rounds)
		if ph.rounds >= minRounds && spent+mean > budget {
			return
		}
	}
}

// runCell executes one cell through the public path and then the
// decomposed path, records their times and checks both outcomes.
func (b *bench) runCell(i int, ph *phase) {
	c := b.cells[i]
	s := &ph.per[i]
	round := ph.rounds

	var r0, r1 float64
	if ph.reference {
		r0 = referenceSeconds()
	}
	var before *usage
	if ph.memstats {
		before = readUsage()
	} else {
		runtime.GC()
	}
	t0 := time.Now()
	res, err := fscoherence.Run(c.bench, c.opt)
	t1 := time.Now()
	if before != nil {
		s.addUsage(before, readUsage())
	}
	s.wall = append(s.wall, t1.Sub(t0).Seconds())
	if sp := ph.spans; sp != nil {
		id := sp.add("cell", c.id, "public", round, -1, t0, t1)
		sp.add("fscoherence.run", c.id, "public", round, id, t0, t1)
		b.execs[i]++
	}
	c.check("public", publicOutcome(res, err))

	if ph.reference {
		r1 = referenceSeconds()
		s.ref = append(s.ref, r0, r1)
		s.wallRef = append(s.wallRef, t1.Sub(t0).Seconds()/((r0+r1)/2))
	}
	runtime.GC()
	o, ts := runDecomposed(c.cell)
	if ph.reference {
		r2 := referenceSeconds()
		s.ref = append(s.ref, r2)
		s.runRef = append(s.runRef, ts[3].Sub(ts[2]).Seconds()/((r1+r2)/2))
	}
	s.build = append(s.build, ts[1].Sub(ts[0]).Seconds())
	s.newSys = append(s.newSys, ts[2].Sub(ts[1]).Seconds())
	s.run = append(s.run, ts[3].Sub(ts[2]).Seconds())
	s.energy = append(s.energy, ts[4].Sub(ts[3]).Seconds())
	if sp := ph.spans; sp != nil {
		id := sp.add("cell", c.id, "decomposed", round, -1, ts[0], ts[4])
		for k, name := range []string{"workload.build", "sim.new", "sim.run", "energy.compute"} {
			sp.add(name, c.id, "decomposed", round, id, ts[k], ts[k+1])
		}
		b.execs[i]++
	}
	c.check("decomposed", o)

	// Each set-up starts from a heap that has given all its free memory back
	// to the OS, as in a fresh process: a set-up allocates megabytes (6.5 MB
	// for an 8-core cell), so after a plain GC its time hinged on how much
	// memory the runtime's scavenger had released meanwhile, and the median
	// of one process differed from another's by up to 40%.
	for k := 0; k < ph.setups; k++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		sys, err := setup(c.cell)
		if err != nil {
			c.check("setup", outcome{err: err})
			return
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		sys.Stop()
	}
}

// usage is a snapshot of the runtime's allocation and CPU-time counters.
type usage struct {
	mem runtime.MemStats
	cpu [3]metrics.Sample // GC assists, GC pauses, user code; CPU seconds
}

// readUsage snapshots the counters after a forced collection: the runtime
// credits its CPU-time classes as each collection ends.
func readUsage() *usage {
	runtime.GC()
	u := &usage{cpu: [3]metrics.Sample{
		{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}}
	metrics.Read(u.cpu[:])
	runtime.ReadMemStats(&u.mem)
	return u
}

// addUsage records what was allocated and collected between two snapshots.
// Collector time counts what the simulating goroutine paid, assists and
// pauses; background marking runs on the otherwise idle processor.
func (s *samples) addUsage(from, to *usage) {
	d := func(i int) float64 { return to.cpu[i].Value.Float64() - from.cpu[i].Value.Float64() }
	s.allocMB = append(s.allocMB, float64(to.mem.TotalAlloc-from.mem.TotalAlloc)/(1<<20))
	s.mallocs = append(s.mallocs, float64(to.mem.Mallocs-from.mem.Mallocs))
	s.gcs = append(s.gcs, float64(to.mem.NumGC-from.mem.NumGC-1)) // less readUsage's own
	s.gcCPU = append(s.gcCPU, d(0)+d(1))
	s.userCPU = append(s.userCPU, d(2))
}

// publicOutcome folds a fscoherence.Run result into an outcome.
func publicOutcome(res *fscoherence.Result, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	return outcome{
		violations: res.Violations,
		stats:      res.Stats,
		sampled:    res.Sampled,
		cycles:     res.Cycles,
		energy:     res.Energy,
		digest:     digest(res.Stats),
	}
}

// simConfig builds a cell's simulator configuration from the layers' own
// defaults: sim.DefaultConfig, Params.ScaleToCores, the topology and the
// sample spec. The digest checks prove it matches what fscoherence.Run
// builds for the same options.
func simConfig(opt fscoherence.Options) (sim.Config, error) {
	cfg := sim.DefaultConfig(opt.Protocol)
	if opt.Cores > 0 {
		cfg.Params = cfg.Params.ScaleToCores(opt.Cores)
	}
	kind, err := network.ParseTopoKind(opt.Topology)
	if err != nil {
		return cfg, err
	}
	cfg.Params.Topology = kind
	if cfg.Sample, err = sample.ParseSpec(opt.Sample); err != nil {
		return cfg, err
	}
	cfg.CheckOracle = opt.Verify
	cfg.CheckSWMR = opt.Verify
	return cfg, nil
}

// prepare resolves a cell's workload model and simulator configuration.
func prepare(c cell) (*workload.Spec, sim.Config, error) {
	spec, err := workload.ByName(c.bench)
	if err != nil {
		return nil, sim.Config{}, err
	}
	cfg, err := simConfig(c.opt)
	return spec, cfg, err
}

// setup assembles a cell's system: workload build plus sim.New.
func setup(c cell) (*sim.System, error) {
	spec, cfg, err := prepare(c)
	if err != nil {
		return nil, err
	}
	threads, regions, _ := spec.BuildLabeled(c.opt.Variant, workload.Scale(c.opt.Scale), c.opt.Cores)
	return sim.New(cfg, sim.Workload{Name: c.bench, Threads: threads, ReductionRegions: regions}), nil
}

// runDecomposed runs a cell through the layers' public functions one at a
// time. ts holds the boundaries: build, sim.New, Run, energy, end.
func runDecomposed(c cell) (o outcome, ts [5]time.Time) {
	spec, cfg, err := prepare(c)
	if err != nil {
		return outcome{err: err}, ts
	}
	ts[0] = time.Now()
	threads, regions, _ := spec.BuildLabeled(c.opt.Variant, workload.Scale(c.opt.Scale), c.opt.Cores)
	ts[1] = time.Now()
	sys := sim.New(cfg, sim.Workload{Name: c.bench, Threads: threads, ReductionRegions: regions})
	ts[2] = time.Now()
	res, err := sys.Run(c.bench)
	ts[3] = time.Now()
	if err != nil {
		ts[4] = ts[3]
		return outcome{err: err}, ts
	}
	e := energy.Default().Compute(res.Stats, c.opt.Protocol != fscoherence.Baseline).Total()
	ts[4] = time.Now()
	o = outcome{
		stats:   res.Stats,
		sampled: res.Sampled,
		cycles:  res.Cycles,
		energy:  e,
		digest:  digest(res.Stats),
	}
	o.violations = append(o.violations, res.OracleViolations...)
	o.violations = append(o.violations, res.SWMRViolations...)
	return o, ts
}

// digest is a digest over every counter in the set, sorted by name.
func digest(s *stats.Set) string {
	var lines []string
	for _, n := range s.Names() {
		lines = append(lines, fmt.Sprintf("%s=%d", n, s.Get(n)))
	}
	return digestStrings(lines)
}

// digestStrings returns the first 16 hex digits of the SHA-256 of the lines.
func digestStrings(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// check applies the output checks to one outcome and records each failure.
// The first good outcome becomes the cell's reference; every later one, on
// any path or phase, must match its canonical stats digest.
func (c *cellState) check(path string, o outcome) {
	fail := func(format string, args ...any) {
		c.failures = append(c.failures, fmt.Sprintf("%s %s: ", c.id, path)+fmt.Sprintf(format, args...))
	}
	if o.err != nil {
		fail("error: %v", o.err)
		return
	}
	for _, v := range o.violations {
		fail("violation: %s", v)
	}
	if want := c.accesses; want != 0 && o.accesses() != want {
		fail("committed %d accesses, construction count %d", o.accesses(), want)
	}
	if c.opt.Sample != "" {
		switch est, ok := o.sampledCycles(); {
		case o.sampled == nil:
			fail("sampled run returned no sampling report")
		case o.sampled.Accesses < c.accesses:
			fail("sampled run committed %d accesses, target %d", o.sampled.Accesses, c.accesses)
		case !ok || est.CI95 <= 0:
			fail("sampled run reports no cycle CI (%d windows)", o.sampled.Windows)
		}
	}
	if c.ref == nil {
		c.ref = &o
	} else if o.digest != c.ref.digest {
		fail("canonical stats digest %s differs from the reference %s", o.digest, c.ref.digest)
	}
}

// sampledCycles returns a sampled run's cycle estimate.
func (o *outcome) sampledCycles() (stats.Estimate, bool) {
	if o.sampled == nil {
		return stats.Estimate{}, false
	}
	e, ok := o.sampled.Estimates[stats.CtrCycles]
	return e, ok
}

// tally counts attempted and failed cells, the verify cell included.
func tally(cells []*cellState) (attempted, failed int) {
	for _, c := range cells {
		attempted++
		if len(c.failures) > 0 {
			failed++
		}
	}
	return attempted, failed
}
