package fscoherence

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"fscoherence/internal/runner"
)

// Runner is the parallel experiment engine: it fans independent
// (benchmark, Options) cells out across a bounded worker pool, memoizes
// results for its lifetime — a cell shared by several tables (e.g. every
// Baseline reference run) is simulated exactly once — and captures panics
// from a misbehaving configuration as that cell's error instead of killing
// the whole sweep.
//
// Every simulation is a pure function of its (benchmark, Options) cell:
// sim.New builds a fully self-contained System (own *stats.Set, memory,
// controllers and thread closures; workload models use per-closure PRNG
// streams, never package-level state), so concurrent runs cannot observe
// each other and a parallel sweep is bit-for-bit identical to a serial one.
// NewRunner(1) executes cells inline in submission order, reproducing the
// historical serial harness exactly.
type Runner struct {
	eng       *runner.Engine
	cores     int
	topology  string
	sample    string
	ckptDir   string
	ckptEvery uint64

	mu      sync.Mutex
	sampled []*Result
	journal *Journal
}

// cellKey identifies one simulation cell. Options contains only comparable
// scalar fields, so the struct is a valid map key and two cells collide
// exactly when they would produce identical results.
type cellKey struct {
	Bench string
	Opt   Options
}

// NewRunner returns an engine running at most workers simulations at once;
// workers <= 0 selects runtime.NumCPU().
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Runner{eng: runner.New(workers)}
}

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return r.eng.Workers() }

// SetSample sets a default -sample interval spec ("detailed:warming" in
// committed accesses) applied to submitted cells that do not specify one.
// cmd/fsexp's -sample flag uses it to rerun entire tables under interval
// sampling; cells that ran sampled register in SampledCells for the
// estimate report. Cells whose options are incompatible with sampling
// (OOO cores, private L2s, non-inclusive LLC, verification or observability
// attachments) run fully timed instead, so mixed sweeps still complete.
func (r *Runner) SetSample(spec string) { r.sample = spec }

// SampledCells returns every distinct cell that completed as an interval-
// sampled run, in a deterministic order (benchmark, then protocol, then
// variant). Call after Wait.
func (r *Runner) SampledCells() []*Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Result, len(r.sampled))
	copy(out, r.sampled)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		if out[i].Protocol != out[j].Protocol {
			return out[i].Protocol < out[j].Protocol
		}
		return out[i].Variant < out[j].Variant
	})
	return out
}

// SetMachine sets default machine-shape fields (core count, interconnect
// topology) applied to submitted cells that do not specify them. cmd/fsexp's
// -cores/-topology flags use it to rerun entire tables on big-machine
// configurations.
func (r *Runner) SetMachine(cores int, topology string) {
	r.cores, r.topology = cores, topology
}

// SetSupervision installs the per-cell supervision policy: a wall-clock
// watchdog per attempt (0 disables it), bounded retry after a failed attempt
// (error, panic or timeout), and a base backoff doubled per retry with
// deterministic jitter. cmd/fsexp's -timeout/-retries/-backoff flags use it
// so one hung or crashing configuration cannot take down a campaign.
func (r *Runner) SetSupervision(timeout time.Duration, retries int, backoff time.Duration) {
	r.eng.SetSupervision(runner.Supervision{Timeout: timeout, Retries: retries, Backoff: backoff})
}

// SetCheckpointDir enables the warm-state cache for submitted cells:
// checkpoint-compatible cells periodically snapshot into dir (cadence every
// committed L1D accesses; 0 picks DefaultCheckpointEvery) and automatically
// resume from a valid snapshot of their own identity, so a rerun after a
// crash — or a retry after a timeout — picks up mid-run instead of cold.
// Cells whose options cannot checkpoint (OOO, Verify, Obs, Forensics,
// private L2s, non-inclusive LLC) run normally without snapshots.
func (r *Runner) SetCheckpointDir(dir string, every uint64) {
	r.ckptDir, r.ckptEvery = dir, every
}

// cellCheckpointFile names the warm-state cache file a cell checkpoints
// into, or "" when the cell does not checkpoint.
func (r *Runner) cellCheckpointFile(bench string, opt Options) string {
	if r.ckptDir == "" || !CheckpointCompatible(opt) {
		return ""
	}
	every := r.ckptEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	return cacheFilePath(r.ckptDir, bench, checkpointIdentity(bench, opt, every))
}

// SetProgress installs a per-cell completion callback (timing report).
// Calls are serialized by the engine.
func (r *Runner) SetProgress(fn func(bench string, opt Options, d time.Duration, err error)) {
	r.eng.SetProgress(func(c runner.Cell) {
		k := c.Key.(cellKey)
		fn(k.Bench, k.Opt, c.Duration, c.Err)
	})
}

// SetStream installs a JSONL progress stream on the underlying engine: one
// runner.ProgressRecord per executed cell (fsexp -progress). Pass nil to
// detach.
func (r *Runner) SetStream(w io.Writer) { r.eng.SetStream(w) }

// Future is a pending simulation cell.
type Future struct {
	bench string
	opt   Options
	h     *runner.Handle
}

// Submit schedules one cell and returns a future. Scale is normalized
// before keying so Options{Scale: 0} and Options{Scale: 1} share a cell.
func (r *Runner) Submit(bench string, opt Options) *Future {
	if opt.Scale == 0 {
		opt.Scale = 1
	}
	if opt.Cores == 0 {
		opt.Cores = r.cores
	}
	if opt.Topology == "" {
		opt.Topology = r.topology
	}
	if opt.Topology == "flat" {
		opt.Topology = "" // one cell for the two spellings of the default
	}
	if opt.Sample == "" && r.sample != "" && drainableShape(opt, "-sample") == nil {
		opt.Sample = r.sample
	}
	key := cellKey{Bench: bench, Opt: opt}
	h := r.eng.DoSupervised(key, func(seed uint64, att *runner.Attempt) (any, error) {
		ctl := RunControl{Cancel: att.Canceled}
		if r.ckptDir != "" && CheckpointCompatible(opt) {
			ctl.CacheDir = r.ckptDir
			ctl.CheckpointEvery = r.ckptEvery
		}
		res, err := RunControlled(bench, opt, ctl)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		if res.Sampled != nil {
			r.sampled = append(r.sampled, res)
		}
		j := r.journal
		r.mu.Unlock()
		if j != nil && journalEligible(opt) {
			j.record(JournalEntry{
				Status:     JournalOK,
				Bench:      bench,
				Opt:        opt,
				Seed:       seed,
				Checkpoint: r.cellCheckpointFile(bench, opt),
				Result:     wireResult(res),
			})
		}
		return res, nil
	})
	return &Future{bench: bench, opt: opt, h: h}
}

// SubmitBenches schedules one cell per benchmark with the same options.
func (r *Runner) SubmitBenches(benches []string, opt Options) []*Future {
	out := make([]*Future, len(benches))
	for i, b := range benches {
		out[i] = r.Submit(b, opt)
	}
	return out
}

// Run submits one cell and waits for it (memoized like any other cell).
func (r *Runner) Run(bench string, opt Options) (*Result, error) {
	return r.Submit(bench, opt).Result()
}

// MustRun is Run panicking on error — the historical experiment-harness
// contract where a failed reference run is fatal to its table.
func (r *Runner) MustRun(bench string, opt Options) *Result {
	return r.Submit(bench, opt).Must()
}

// Wait blocks until every submitted cell has finished.
func (r *Runner) Wait() { r.eng.Wait() }

// Report returns the engine's counters (cells executed, memo hits, summed
// simulation time). Call after Wait for sweep totals.
func (r *Runner) Report() runner.Report { return r.eng.Report() }

// Result blocks until the cell finishes.
func (f *Future) Result() (*Result, error) {
	v, err := f.h.Wait()
	if err != nil {
		return nil, fmt.Errorf("cell %s/%v: %w", f.bench, f.opt.Protocol, err)
	}
	return v.(*Result), nil
}

// Must blocks and panics if the cell failed. Table builders use it so a
// broken cell aborts only that table; cmd/fsexp recovers the panic and
// continues the sweep with the remaining experiments.
func (f *Future) Must() *Result {
	res, err := f.Result()
	if err != nil {
		panic(err)
	}
	return res
}
