package fscoherence

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// ckptcheck: crash/resume byte-identity. An interrupted-then-resumed run
// must reproduce the uninterrupted run of the same checkpoint cadence
// exactly — cycle count, every counter, every detection.

// ckptEvery is small enough that the test workloads cross several
// checkpoint boundaries.
const ckptEvery = 2_000

// errSimulatedCrash stands in for the process dying mid-campaign.
var errSimulatedCrash = errors.New("simulated crash")

// runInterruptedThenResumed writes checkpoints to a temp file, "crashes" the
// run right after checkpoint number crashAfter, then resumes from the file
// and returns the completed result.
func runInterruptedThenResumed(t *testing.T, bench string, opt Options, crashAfter int) *Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := RunControlled(bench, opt, RunControl{
		CheckpointPath:  path,
		CheckpointEvery: ckptEvery,
		OnCheckpoint: func(n int) error {
			if n >= crashAfter {
				return errSimulatedCrash
			}
			return nil
		},
	})
	if err == nil {
		t.Fatalf("interrupted run finished before writing %d checkpoints; shrink ckptEvery", crashAfter)
	}
	if !strings.Contains(err.Error(), errSimulatedCrash.Error()) {
		t.Fatalf("interrupted run failed for the wrong reason: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint file after interrupted run: %v", err)
	}
	res, err := RunControlled(bench, opt, RunControl{Resume: path, CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	for _, w := range res.Warnings {
		if strings.Contains(w, "running cold") {
			t.Fatalf("resume fell back to a cold run: %v", res.Warnings)
		}
	}
	return res
}

// requireByteIdentical asserts two results are indistinguishable.
func requireByteIdentical(t *testing.T, ref, got *Result) {
	t.Helper()
	if got.Cycles != ref.Cycles {
		t.Errorf("cycles: resumed %d, uninterrupted %d", got.Cycles, ref.Cycles)
	}
	refStats, gotStats := ref.Stats.Snapshot(), got.Stats.Snapshot()
	if !reflect.DeepEqual(refStats, gotStats) {
		for k, v := range refStats {
			if gotStats[k] != v {
				t.Errorf("counter %s: resumed %d, uninterrupted %d", k, gotStats[k], v)
			}
		}
		for k, v := range gotStats {
			if _, ok := refStats[k]; !ok {
				t.Errorf("counter %s: resumed has %d, uninterrupted lacks it", k, v)
			}
		}
	}
	if !reflect.DeepEqual(ref.Detections, got.Detections) {
		t.Errorf("detections differ:\nuninterrupted %v\nresumed       %v", ref.Detections, got.Detections)
	}
	if !reflect.DeepEqual(ref.Contended, got.Contended) {
		t.Errorf("contended differ:\nuninterrupted %v\nresumed       %v", ref.Contended, got.Contended)
	}
}

// TestCheckpointResumeByteIdentical is the ckptcheck matrix: kill mid-window
// and resume under the skip policy on {flat, mesh}. (The naive policy's
// byte-identity under checkpointing is internal/sim's checkpointed cell of
// TestEngineEquivalenceAttachments.)
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, topo := range []string{"flat", "mesh"} {
		t.Run("skip/"+topo, func(t *testing.T) {
			t.Parallel()
			opt := Options{Protocol: FSDetect, Scale: testScale, Topology: topo}
			ref, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
			if err != nil {
				t.Fatalf("uninterrupted run failed: %v", err)
			}
			got := runInterruptedThenResumed(t, "RC", opt, 2)
			requireByteIdentical(t, ref, got)
		})
	}
}

// TestCheckpointResumeSampled covers the sampled-run path: checkpoints ride
// the existing window boundaries and the estimator state round-trips, so the
// resumed run's estimates equal the uninterrupted run's.
func TestCheckpointResumeSampled(t *testing.T) {
	opt := Options{Protocol: FSDetect, Scale: testScale, Sample: "1k:3k"}
	ref, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("uninterrupted sampled run failed: %v", err)
	}
	if ref.Sampled == nil {
		t.Fatalf("reference run did not sample")
	}
	got := runInterruptedThenResumed(t, "RC", opt, 2)
	requireByteIdentical(t, ref, got)
	if got.Sampled == nil {
		t.Fatalf("resumed run did not sample")
	}
	if got.Sampled.Windows != ref.Sampled.Windows || got.Sampled.Accesses != ref.Sampled.Accesses ||
		got.Sampled.Detailed != ref.Sampled.Detailed {
		t.Errorf("sampled accounting differs: resumed %+v, uninterrupted %+v", got.Sampled, ref.Sampled)
	}
	if !reflect.DeepEqual(ref.Sampled.Estimates, got.Sampled.Estimates) {
		t.Errorf("estimates differ:\nuninterrupted %v\nresumed       %v", ref.Sampled.Estimates, got.Sampled.Estimates)
	}
}

// TestCheckpointBaselineProtocol exercises the Baseline mode (no PAM/SAM
// policy images in the checkpoint).
func TestCheckpointBaselineProtocol(t *testing.T) {
	opt := Options{Protocol: Baseline, Scale: testScale}
	ref, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}
	got := runInterruptedThenResumed(t, "RC", opt, 1)
	requireByteIdentical(t, ref, got)
}

// TestCorruptCheckpointFallsBackCold flips one payload byte: the CRC rejects
// the file, the run warns and completes cold — byte-identical to a cold run
// of the same cadence, never a panic.
func TestCorruptCheckpointFallsBackCold(t *testing.T) {
	opt := Options{Protocol: FSDetect, Scale: testScale}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := RunControlled("RC", opt, RunControl{
		CheckpointPath:  path,
		CheckpointEvery: ckptEvery,
		OnCheckpoint:    func(int) error { return errSimulatedCrash },
	})
	if err == nil {
		t.Fatalf("expected the interrupted run to stop")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("cold reference failed: %v", err)
	}
	got, err := RunControlled("RC", opt, RunControl{Resume: path, CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("resume from corrupt checkpoint must degrade, not fail: %v", err)
	}
	warned := false
	for _, w := range got.Warnings {
		if strings.Contains(w, "running cold") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("corrupt checkpoint produced no cold-fallback warning: %v", got.Warnings)
	}
	requireByteIdentical(t, ref, got)
}

// TestMissingResumeFallsBackCold: a nonexistent -resume path degrades to a
// cold run with a warning.
func TestMissingResumeFallsBackCold(t *testing.T) {
	opt := Options{Protocol: FSLite, Scale: testScale}
	got, err := RunControlled("RC", opt, RunControl{
		Resume:          filepath.Join(t.TempDir(), "nope.ckpt"),
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		t.Fatalf("missing resume file must degrade, not fail: %v", err)
	}
	if len(got.Warnings) == 0 {
		t.Errorf("missing resume file produced no warning")
	}
}

// TestWrongIdentityFallsBackCold: resuming a checkpoint into a different
// configuration (different protocol) is caught by the identity hash.
func TestWrongIdentityFallsBackCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := RunControlled("RC", Options{Protocol: FSDetect, Scale: testScale}, RunControl{
		CheckpointPath:  path,
		CheckpointEvery: ckptEvery,
		OnCheckpoint:    func(int) error { return errSimulatedCrash },
	})
	if err == nil {
		t.Fatalf("expected the interrupted run to stop")
	}
	opt := Options{Protocol: Baseline, Scale: testScale}
	ref, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunControlled("RC", opt, RunControl{Resume: path, CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("wrong-identity resume must degrade, not fail: %v", err)
	}
	warned := false
	for _, w := range got.Warnings {
		if strings.Contains(w, "running cold") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("wrong-identity checkpoint produced no cold-fallback warning: %v", got.Warnings)
	}
	requireByteIdentical(t, ref, got)
}

// TestWarmStateCache: a second run of the same cell resumes from the cache
// directory automatically and still matches the uninterrupted reference.
func TestWarmStateCache(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Protocol: FSDetect, Scale: testScale}
	ref, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	// First run populates the cache and crashes.
	_, err = RunControlled("RC", opt, RunControl{
		CacheDir:        dir,
		CheckpointEvery: ckptEvery,
		OnCheckpoint:    func(n int) error { return errSimulatedCrash },
	})
	if err == nil {
		t.Fatalf("expected the interrupted run to stop")
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one cache file, got %v (err %v)", ents, err)
	}
	// Second run finds the cache file under its own identity and resumes.
	got, err := RunControlled("RC", opt, RunControl{CacheDir: dir, CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("cache resume failed: %v", err)
	}
	for _, w := range got.Warnings {
		if strings.Contains(w, "running cold") {
			t.Fatalf("cache resume fell back cold: %v", got.Warnings)
		}
	}
	requireByteIdentical(t, ref, got)
}

// TestCheckpointRejectsUnsupportedShapes: option shapes whose state cannot
// be serialized fail fast with a useful error instead of checkpointing
// silently-incomplete state.
func TestCheckpointRejectsUnsupportedShapes(t *testing.T) {
	cases := []Options{
		{Protocol: FSDetect, OOO: true},
		{Protocol: FSDetect, Verify: true},
		{Protocol: FSDetect, L2KB: 256},
		{Protocol: FSDetect, NonInclusiveLLC: true},
	}
	for _, opt := range cases {
		if _, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery}); err == nil {
			t.Errorf("options %+v: checkpointing should be rejected", opt)
		}
		if CheckpointCompatible(opt) {
			t.Errorf("options %+v: CheckpointCompatible should be false", opt)
		}
	}
	if !CheckpointCompatible(Options{Protocol: FSDetect}) {
		t.Errorf("default FSDetect options should be checkpoint-compatible")
	}
}

// TestCadenceIsPartOfIdentity: the same cell at a different cadence is a
// different execution, so its checkpoint must not be accepted.
func TestCadenceIsPartOfIdentity(t *testing.T) {
	opt := Options{Protocol: FSDetect, Scale: testScale}
	a := checkpointIdentity("RC", opt, 10_000)
	b := checkpointIdentity("RC", opt, 20_000)
	if a == b {
		t.Errorf("identity ignores the checkpoint cadence")
	}
	if checkpointIdentity("RC", opt, 10_000) != a {
		t.Errorf("identity is not deterministic")
	}
}

// TestCheckpointEveryDefinesExecution documents the cadence-as-semantics
// contract: runs of different cadences may disagree on cycles (boundary
// drains perturb timing), but each cadence is itself deterministic.
func TestCheckpointEveryDefinesExecution(t *testing.T) {
	opt := Options{Protocol: FSDetect, Scale: testScale}
	a1, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunControlled("RC", opt, RunControl{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdentical(t, a1, a2)
}
