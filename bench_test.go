package fscoherence

import (
	"runtime"
	"testing"
	"time"

	"fscoherence/internal/obs"
	"fscoherence/internal/stats"
	"fscoherence/internal/workload"
)

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md's
// experiment index). Each runs the corresponding experiment once per
// iteration and reports the headline number the paper quotes as a custom
// metric, so `go test -bench` regenerates the full evaluation:
//
//	go test -bench . -benchmem
//
// benchScale trades precision for time; cmd/fsexp runs the same experiments
// at full scale. Each iteration uses a fresh serial Runner so the measured
// work matches the historical serial harness (memoization within one table
// still applies, as it does in fsexp).
const benchScale = 0.5

// serialRunner returns a fresh 1-worker engine (no cross-iteration caching).
func serialRunner() *Runner { return NewRunner(1) }

func reportGeo(b *testing.B, t *Table, col, metric string) {
	b.Helper()
	if v, ok := t.GeoMean[col]; ok {
		b.ReportMetric(v, metric)
	}
}

func BenchmarkFig02ManualFixSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Fig2ManualFix(serialRunner(), benchScale)
		reportGeo(b, t, "manual", "geomean-speedup")
	}
}

func BenchmarkFig13L1DMissFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Fig13MissFractions(serialRunner(), benchScale)
		reportGeo(b, t, "miss-fraction", "mean-miss-fraction")
	}
}

func BenchmarkFig14aSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Fig14Speedup(serialRunner(), benchScale)
		reportGeo(b, t, "fslite", "fslite-geomean-speedup")
		reportGeo(b, t, "fsdetect", "fsdetect-geomean-speedup")
	}
}

// BenchmarkFig14aSpeedupNaiveEngine reruns the Fig 14a experiment under the
// naive cycle-stepped loop; the ns/op ratio to BenchmarkFig14aSpeedup (which
// uses the default quiescence-skipping engine) is the engine's wall-clock
// speedup. Results are byte-identical (TestEngineEquivalence).
func BenchmarkFig14aSpeedupNaiveEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := serialRunner()
		r.SetEngine("naive")
		t := Fig14Speedup(r, benchScale)
		reportGeo(b, t, "fslite", "fslite-geomean-speedup")
	}
}

func BenchmarkFig14bEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Fig14Energy(serialRunner(), benchScale)
		reportGeo(b, t, "fslite", "fslite-geomean-energy")
	}
}

func BenchmarkFig15NoFalseSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Fig15NoFalseSharing(serialRunner(), benchScale)
		reportGeo(b, t, "speedup", "fslite-geomean-speedup")
		reportGeo(b, t, "energy", "fslite-geomean-energy")
	}
}

func BenchmarkFig16TauPSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Fig16TauP(serialRunner(), benchScale)
		reportGeo(b, t, "tauP=32", "tau32-geomean")
		reportGeo(b, t, "tauP=64", "tau64-geomean")
	}
}

func BenchmarkFig17HuronComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Fig17Huron(serialRunner(), benchScale)
		reportGeo(b, t, "manual", "manual-geomean")
		reportGeo(b, t, "huron", "huron-geomean")
		reportGeo(b, t, "fslite", "fslite-geomean")
	}
}

func BenchmarkNetworkTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := NetworkTraffic(serialRunner(), benchScale)
		reportGeo(b, t, "requests", "request-ratio")
		reportGeo(b, t, "bytes", "byte-ratio")
	}
}

func BenchmarkSensitivitySAMSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := SAMSizeSensitivity(serialRunner(), benchScale)
		reportGeo(b, t, "speedup-256", "sam256-speedup")
	}
}

func BenchmarkSensitivityReaderOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := ReaderOptStudy(serialRunner(), benchScale)
		reportGeo(b, t, "speedup", "readeropt-speedup")
	}
}

func BenchmarkSensitivityGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := GranularityStudy(serialRunner(), benchScale)
		reportGeo(b, t, "grain=2", "grain2-speedup")
		reportGeo(b, t, "grain=4", "grain4-speedup")
	}
}

func BenchmarkSensitivityISOStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := ISOStorageStudy(serialRunner(), benchScale)
		reportGeo(b, t, "speedup", "fslite32K-vs-base128K")
	}
}

func BenchmarkSensitivityLargeL1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := LargeL1Study(serialRunner(), benchScale)
		reportGeo(b, t, "speedup", "fslite-geomean-512K")
	}
}

func BenchmarkSensitivityOOO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := OOOStudy(serialRunner(), benchScale)
		reportGeo(b, t, "ooo-vs-inorder", "ooo-baseline-speedup")
		reportGeo(b, t, "fslite-on-ooo", "fslite-on-ooo-speedup")
	}
}

func BenchmarkTableVRunTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TableVRunTimes(serialRunner(), benchScale)
	}
}

// primarySweep runs the primary-results sweep (fsexp's default set plus
// Fig 13) on the given engine — the workload for the serial-vs-parallel
// wall-clock comparison below.
func primarySweep(r *Runner, scale float64) {
	Fig2ManualFix(r, scale)
	Fig13MissFractions(r, scale)
	Fig14Speedup(r, scale)
	Fig14Energy(r, scale)
	Fig15NoFalseSharing(r, scale)
	r.Wait()
}

// BenchmarkSweepSerial and BenchmarkSweepParallel run the identical
// primary-results sweep with 1 worker and with one worker per CPU; the
// ns/op ratio between them is the engine's wall-clock speedup (≈ min(cores,
// independent cells) on an idle multi-core host; 1.0 by construction on a
// single-core host). Each iteration uses a fresh engine so memoization
// cannot carry results across iterations.
func BenchmarkSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		primarySweep(NewRunner(1), benchScale)
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
	for i := 0; i < b.N; i++ {
		primarySweep(NewRunner(runtime.NumCPU()), benchScale)
	}
}

// benchBigMachine runs the Fig 14a-shaped big-machine cell — uGRID on a
// mesh-NoC machine of the given core count, Baseline vs FSLite in the
// default (falsely shared) layout — under the skip engine, reporting FSLite's
// speedup.
func benchBigMachine(b *testing.B, cores int) {
	for i := 0; i < b.N; i++ {
		opt := Options{Protocol: Baseline, Scale: 1, Cores: cores, Topology: "mesh", Engine: "skip"}
		base, err := Run("uGRID", opt)
		if err != nil {
			b.Fatal(err)
		}
		opt.Protocol = FSLite
		fsl, err := Run("uGRID", opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fsl.Speedup(base), "fslite-speedup")
	}
}

func BenchmarkBigMachineMesh8SkipEngine(b *testing.B)  { benchBigMachine(b, 8) }
func BenchmarkBigMachineMesh64SkipEngine(b *testing.B) { benchBigMachine(b, 64) }

// BenchmarkSampledBillionAccessMesh64 is the interval-sampling headline cell:
// one billion committed accesses of the falsely-sharing uGRID microbenchmark
// on a 64-core mesh under FSLite, sampled at 50k-access detailed windows every
// 10M accesses (0.5% detailed coverage, 100 windows). A fully-timed reference
// at 1% of the size runs alongside to measure the detailed engine's
// throughput on the identical machine; the reported effective-speedup metric
// is the ratio of committed accesses per wall-second, sampled vs full — the
// ISSUE 8 acceptance gate asks for >= 20x. CI quality for the estimates is
// pinned separately by TestSampledVsFull (`make samplecheck`).
func BenchmarkSampledBillionAccessMesh64(b *testing.B) {
	const accesses = 1_000_000_000
	// Pad the budget slightly: per-thread iteration counts round down, and
	// the cell must not land just under the billion-access floor.
	scale := float64(workload.GridScaleForAccesses(64, accesses+2_000_000))
	for i := 0; i < b.N; i++ {
		refStart := time.Now()
		ref, err := Run("uGRID", Options{Protocol: FSLite, Scale: scale / 100, Cores: 64, Topology: "mesh"})
		if err != nil {
			b.Fatal(err)
		}
		refSecs := time.Since(refStart).Seconds()
		refAcc := float64(ref.Stats.Get(stats.CtrL1DAccesses))

		sampStart := time.Now()
		res, err := Run("uGRID", Options{Protocol: FSLite, Scale: scale, Cores: 64, Topology: "mesh", Sample: "50k:9950k"})
		if err != nil {
			b.Fatal(err)
		}
		sampSecs := time.Since(sampStart).Seconds()
		if res.Sampled == nil || res.Sampled.Accesses < accesses {
			b.Fatalf("sampled run committed %d accesses, want >= %d", res.Sampled.Accesses, uint64(accesses))
		}
		sampRate := float64(res.Sampled.Accesses) / sampSecs
		refRate := refAcc / refSecs
		b.ReportMetric(float64(res.Sampled.Accesses), "accesses")
		b.ReportMetric(sampRate, "accesses/s")
		b.ReportMetric(sampRate/refRate, "effective-speedup")
		b.ReportMetric(float64(res.Sampled.Windows), "windows")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles/sec) on
// the heaviest workload — a harness-health metric, not a paper figure.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := Run("RC", Options{Protocol: Baseline, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkRunTracerDisabled / BenchmarkRunTracerEnabled run the same FSLite
// cell with observability off and on. The disabled run pays one nil check
// per would-be event (no Event construction, no allocation — pinned by
// internal/obs's TestEmitBenchmarksDoNotAllocate); the ns/op gap between the
// pair is the full cost of tracing when requested.
func BenchmarkRunTracerDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run("LR", Options{Protocol: FSLite, Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTracerEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := obs.New(obs.Config{})
		if _, err := Run("LR", Options{Protocol: FSLite, Scale: benchScale, Obs: o}); err != nil {
			b.Fatal(err)
		}
		if o.Tracer.Total() == 0 {
			b.Fatal("enabled run traced no events")
		}
	}
}
