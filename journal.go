package fscoherence

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"fscoherence/internal/energy"
	"fscoherence/internal/runner"
	"fscoherence/internal/stats"
	"fscoherence/internal/workload"
)

// Campaign journal: an append-only JSONL log of every cell a sweep
// completed, retried or abandoned. An interrupted campaign (crash, SIGKILL,
// power loss) restarts by loading the journal and priming the engine's memo
// with the completed cells, so only unfinished work reruns — and a cell that
// was checkpointing into the warm-state cache resumes mid-run on top of
// that.
//
// The format is truncation-tolerant: records are written one per line with a
// sync per record, and the loader skips a torn final line (the crash case)
// instead of failing, so a journal written up to the instant of death is
// always usable.

// Journal statuses.
const (
	JournalOK      = "ok"      // cell completed; Result holds its outcome
	JournalFail    = "fail"    // cell exhausted its retries
	JournalAttempt = "attempt" // one failed attempt (the cell may yet succeed)
)

// JournalEntry is one journal record.
type JournalEntry struct {
	Status string  `json:"status"`
	Bench  string  `json:"bench"`
	Opt    Options `json:"opt"`
	Seed   uint64  `json:"seed"`

	// Attempt and Error describe a failed attempt ("attempt", "fail");
	// BackoffMS is the backoff slept before the next attempt (0 when the
	// cell is out of retries).
	Attempt   int    `json:"attempt,omitempty"`
	Error     string `json:"error,omitempty"`
	BackoffMS int64  `json:"backoff_ms,omitempty"`

	// Checkpoint names the cell's warm-state cache file, when the campaign
	// checkpoints: a failed cell resumes from it on the next campaign.
	Checkpoint string `json:"checkpoint,omitempty"`

	// Result carries the completed cell's outcome ("ok" records only).
	Result *ResultWire `json:"result,omitempty"`
}

// ResultWire is the serializable subset of Result journaled for completed
// cells — everything a primed cell needs except the attachments (cells with
// Obs/Forensics attachments are not journaled) and the ground truth (cheaply
// rebuilt from the workload at prime time).
type ResultWire struct {
	Benchmark    string            `json:"benchmark"`
	Protocol     Protocol          `json:"protocol"`
	Variant      Variant           `json:"variant"`
	Cycles       uint64            `json:"cycles"`
	Stats        map[string]uint64 `json:"stats"`
	MissFraction float64           `json:"miss_fraction"`
	Energy       float64           `json:"energy"`
	Detections   []Detection       `json:"detections,omitempty"`
	Contended    []Detection       `json:"contended,omitempty"`
	Violations   []string          `json:"violations,omitempty"`
	Sampled      *SampledRun       `json:"sampled,omitempty"`
	Warnings     []string          `json:"warnings,omitempty"`
}

// wireResult converts a Result for journaling.
func wireResult(r *Result) *ResultWire {
	return &ResultWire{
		Benchmark:    r.Benchmark,
		Protocol:     r.Protocol,
		Variant:      r.Variant,
		Cycles:       r.Cycles,
		Stats:        r.Stats.Snapshot(),
		MissFraction: r.MissFraction,
		Energy:       r.Energy,
		Detections:   r.Detections,
		Contended:    r.Contended,
		Violations:   r.Violations,
		Sampled:      r.Sampled,
		Warnings:     r.Warnings,
	}
}

// unwire rebuilds a Result from its journaled form, reconstructing the
// counter set and (deterministically, from the workload registry) the
// ground-truth labels.
func (w *ResultWire) unwire() (*Result, error) {
	st := stats.NewSet()
	for name, v := range w.Stats {
		st.Set(name, v)
	}
	r := &Result{
		Benchmark:    w.Benchmark,
		Protocol:     w.Protocol,
		Variant:      w.Variant,
		Cycles:       w.Cycles,
		Stats:        st,
		MissFraction: w.MissFraction,
		Energy:       w.Energy,
		Detections:   w.Detections,
		Contended:    w.Contended,
		Violations:   w.Violations,
		Sampled:      w.Sampled,
		Warnings:     w.Warnings,
	}
	// Recompute what Run derives rather than trusting the file for it.
	r.Energy = energy.Default().Compute(st, w.Protocol != Baseline).Total()
	return r, nil
}

// Journal is an append-only campaign journal. Safe for concurrent use (the
// worker pool records cells as they finish).
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) a journal for appending.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// record appends one entry (line-atomic: a single Write call per record,
// synced so a crash immediately after still finds it on disk).
func (j *Journal) record(e JournalEntry) {
	data, err := json.Marshal(e)
	if err != nil {
		return // a non-serializable entry is dropped, never fatal mid-sweep
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err == nil {
		j.f.Sync()
	}
}

// LoadJournal reads a journal, skipping blank and torn lines (a crash can
// leave a partial final record; everything before it is intact because each
// record is one synced write). A missing file is an empty campaign, not an
// error.
func LoadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var out []JournalEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue // torn or foreign line: tolerate, don't fail the resume
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("journal: %w", err)
	}
	return out, nil
}

// journalEligible reports whether a cell's result can be journaled: cells
// carrying Obs/Forensics attachments reference live in-memory recorders that
// a later campaign cannot reconstruct, so they always rerun.
func journalEligible(opt Options) bool {
	return opt.Obs == nil && opt.Forensics == nil
}

// SetJournal attaches a campaign journal: every executed cell is recorded as
// it finishes ("ok" with its full result, or "fail"/"attempt" with the
// error), so an interrupted sweep can resume with ResumeJournal.
func (r *Runner) SetJournal(j *Journal) {
	r.mu.Lock()
	r.journal = j
	r.mu.Unlock()
	r.eng.SetAttemptHook(func(key any, attempt int, err error, backoff time.Duration) {
		k, ok := key.(cellKey)
		if !ok {
			return
		}
		e := JournalEntry{
			Status:     JournalAttempt,
			Bench:      k.Bench,
			Opt:        k.Opt,
			Seed:       runner.Seed(k),
			Attempt:    attempt,
			Error:      err.Error(),
			BackoffMS:  backoff.Milliseconds(),
			Checkpoint: r.cellCheckpointFile(k.Bench, k.Opt),
		}
		if backoff == 0 {
			e.Status = JournalFail
		}
		j.record(e)
	})
}

// ResumeJournal loads a prior campaign's journal and primes the engine's
// memo with every completed cell, so resubmitting the same sweep only
// reruns unfinished work. Returns the number of cells primed. Entries whose
// benchmark no longer exists are skipped.
func (r *Runner) ResumeJournal(path string) (int, error) {
	entries, err := LoadJournal(path)
	if err != nil {
		return 0, err
	}
	primed := 0
	for _, e := range entries {
		if e.Status != JournalOK || e.Result == nil {
			continue
		}
		spec, err := workload.ByName(e.Bench)
		if err != nil {
			continue
		}
		res, err := e.Result.unwire()
		if err != nil {
			continue
		}
		opt := e.Opt
		if opt.Scale == 0 {
			opt.Scale = 1
		}
		_, _, gt := spec.BuildLabeled(opt.Variant, workload.Scale(opt.Scale), opt.Cores)
		res.GroundTruth = gt
		if r.eng.Prime(cellKey{Bench: e.Bench, Opt: e.Opt}, res) {
			primed++
			if res.Sampled != nil {
				r.mu.Lock()
				r.sampled = append(r.sampled, res)
				r.mu.Unlock()
			}
		}
	}
	return primed, nil
}
