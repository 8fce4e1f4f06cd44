package fscoherence

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fscoherence/internal/forensics"
)

// Campaign journal tests: a crashed sweep must resume from its journal with
// completed cells primed (not rerun) and primed results indistinguishable
// from fresh ones.

// journalPath returns a fresh journal location.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.jsonl")
}

// TestJournalIgnoresLegacyEngineKey: journals written by older builds carry
// an "Engine" key in every cell's options. Loading one must prime the same
// cell: encoding/json ignores the unknown key, and the cell key no longer
// has an engine.
func TestJournalIgnoresLegacyEngineKey(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Protocol: FSDetect, Scale: testScale}
	r1 := NewRunner(1)
	r1.SetJournal(j)
	ref, err := r1.Run("RC", opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(data, []byte(`"opt":{`), []byte(`"opt":{"Engine":"skip",`), 1)
	if bytes.Equal(legacy, data) {
		t.Fatalf("journal record has no opt object: %s", data)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(1)
	primed, err := r2.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if primed != 1 {
		t.Fatalf("primed %d cells from the legacy journal, want 1", primed)
	}
	res, err := r2.Run("RC", opt)
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdentical(t, ref, res)
	r2.Wait()
	if rep := r2.Report(); rep.Executed != 0 {
		t.Fatalf("legacy-primed cell reran: executed %d cells, want 0", rep.Executed)
	}
}

// TestJournalResumePrimesCompletedCells: run a small campaign with a journal,
// then resume it in a fresh Runner — every cell is served from the journal
// and the results match the originals byte for byte.
func TestJournalResumePrimesCompletedCells(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Options{
		{Protocol: Baseline, Scale: testScale},
		{Protocol: FSDetect, Scale: testScale},
	}
	r1 := NewRunner(1)
	r1.SetJournal(j)
	var ref []*Result
	for _, opt := range opts {
		res, err := r1.Run("RC", opt)
		if err != nil {
			t.Fatalf("campaign cell failed: %v", err)
		}
		ref = append(ref, res)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(1)
	primed, err := r2.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if primed != len(opts) {
		t.Fatalf("primed %d cells, want %d", primed, len(opts))
	}
	for i, opt := range opts {
		res, err := r2.Run("RC", opt)
		if err != nil {
			t.Fatalf("resumed cell failed: %v", err)
		}
		requireByteIdentical(t, ref[i], res)
		if res.Energy != ref[i].Energy {
			t.Errorf("energy: resumed %v, original %v", res.Energy, ref[i].Energy)
		}
		if res.GroundTruth == nil {
			t.Error("resumed cell lost its ground truth")
		}
	}
	r2.Wait()
	rep := r2.Report()
	if rep.Executed != 0 {
		t.Fatalf("resumed campaign executed %d cells, want 0 (all primed)", rep.Executed)
	}
	if rep.Primed != len(opts) {
		t.Fatalf("Report.Primed = %d, want %d", rep.Primed, len(opts))
	}
}

// TestJournalRecordsFailures: a cell that exhausts its retries leaves "fail"
// (and per-attempt "attempt") records carrying the cell, seed and error, and
// is NOT primed on resume — it reruns.
func TestJournalRecordsFailures(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1)
	r.SetJournal(j)
	r.SetSupervision(0, 1, time.Microsecond)
	if _, err := r.Run("NOPE", Options{}); err == nil {
		t.Fatal("unknown benchmark should fail")
	}
	r.Wait()
	j.Close()

	entries, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var attempts, fails int
	for _, e := range entries {
		switch e.Status {
		case JournalAttempt:
			attempts++
		case JournalFail:
			fails++
			if e.Bench != "NOPE" || e.Seed == 0 || e.Error == "" {
				t.Errorf("fail record incomplete: %+v", e)
			}
		case JournalOK:
			t.Errorf("unexpected ok record for a failing campaign: %+v", e)
		}
	}
	if attempts != 1 || fails != 1 {
		t.Fatalf("journal has %d attempt / %d fail records, want 1/1", attempts, fails)
	}

	r2 := NewRunner(1)
	primed, err := r2.ResumeJournal(path)
	if err != nil || primed != 0 {
		t.Fatalf("failed cells must not prime: primed=%d err=%v", primed, err)
	}
}

// TestJournalTruncationTolerant: a torn final line (the record being written
// when the process died) is skipped; every complete record loads.
func TestJournalTruncationTolerant(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.record(JournalEntry{Status: JournalOK, Bench: "RC", Seed: 7, Result: &ResultWire{Benchmark: "RC"}})
	j.record(JournalEntry{Status: JournalFail, Bench: "HG", Seed: 9, Error: "boom"})
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"status":"ok","bench":"LU","result":{"cyc`) // torn mid-record
	f.Close()

	entries, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("LoadJournal on a torn file: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("loaded %d entries, want the 2 complete ones", len(entries))
	}
	if entries[0].Bench != "RC" || entries[1].Bench != "HG" {
		t.Fatalf("entries = %+v", entries)
	}
}

// TestLoadJournalMissing: a missing journal is an empty campaign.
func TestLoadJournalMissing(t *testing.T) {
	entries, err := LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || entries != nil {
		t.Fatalf("missing journal: entries=%v err=%v, want nil/nil", entries, err)
	}
}

// TestJournalSkipsAttachmentCells: cells carrying live attachments cannot be
// reconstructed from JSON, so they are never journaled (and always rerun).
func TestJournalSkipsAttachmentCells(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1)
	r.SetJournal(j)
	rec := forensics.New()
	if _, err := r.Run("RC", Options{Protocol: FSDetect, Scale: testScale, Forensics: rec}); err != nil {
		t.Fatalf("forensics cell failed: %v", err)
	}
	r.Wait()
	j.Close()
	entries, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("attachment cell was journaled: %+v", entries)
	}
}

// TestJournalResumeSkipsUnknownBench: records for benchmarks that no longer
// exist are skipped instead of failing the resume.
func TestJournalResumeSkipsUnknownBench(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.record(JournalEntry{Status: JournalOK, Bench: "GONE", Result: &ResultWire{Benchmark: "GONE"}})
	j.Close()
	r := NewRunner(1)
	primed, err := r.ResumeJournal(path)
	if err != nil || primed != 0 {
		t.Fatalf("unknown bench: primed=%d err=%v, want 0/nil", primed, err)
	}
}

// TestJournalSampledResume: a sampled cell's estimate report survives the
// journal round-trip and re-registers in SampledCells.
func TestJournalSampledResume(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Protocol: FSDetect, Scale: testScale, Sample: "1k:3k"}
	r1 := NewRunner(1)
	r1.SetJournal(j)
	ref, err := r1.Run("RC", opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Sampled == nil {
		t.Fatal("expected a sampled run")
	}
	j.Close()

	r2 := NewRunner(1)
	if primed, err := r2.ResumeJournal(path); err != nil || primed != 1 {
		t.Fatalf("primed=%d err=%v", primed, err)
	}
	got, err := r2.Run("RC", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Sampled, got.Sampled) {
		t.Errorf("sampled report changed over the journal round-trip:\nref %+v\ngot %+v", ref.Sampled, got.Sampled)
	}
	if cells := r2.SampledCells(); len(cells) != 1 {
		t.Fatalf("SampledCells after resume = %d, want 1", len(cells))
	}
}
