package fscoherence

import (
	"strings"
	"testing"
)

// testScale keeps API-level tests fast while preserving behaviour.
const testScale = 0.25

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run("NOPE", Options{}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestRunRejectsBadMachineOptions(t *testing.T) {
	for _, opt := range []Options{
		{Topology: "torus"},
		{Cores: 100},
		{Cores: -8},
		{Cores: 512},
	} {
		if _, err := Run("RC", opt); err == nil {
			t.Errorf("Run(RC, %+v) must error", opt)
		}
	}
	// Boundary shapes stay legal.
	for _, opt := range []Options{
		{Cores: 8, Topology: "flat", Scale: 0.05},
		{Cores: 16, Topology: "ring", Scale: 0.05},
	} {
		if _, err := Run("uWW", opt); err != nil {
			t.Errorf("Run(uWW, %+v): %v", opt, err)
		}
	}
}

func TestParseVariant(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Variant
		ok   bool
	}{
		{"", LayoutDefault, true},
		{"default", LayoutDefault, true},
		{"padded", LayoutPadded, true},
		{"manual", LayoutPadded, true},
		{"Padded", LayoutPadded, true},
		{"huron", LayoutHuron, true},
		{"HURON", LayoutHuron, true},
		{"pad", 0, false},
		{"bogus", 0, false},
	} {
		got, err := ParseVariant(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseVariant(%q) = %v; want an error", c.in, got)
		}
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	r, err := Run("RC", Options{Protocol: Baseline, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Benchmark != "RC" || r.Protocol != Baseline {
		t.Fatalf("result malformed: %+v", r)
	}
	if r.MissFraction <= 0 || r.MissFraction >= 1 {
		t.Fatalf("miss fraction %v out of range", r.MissFraction)
	}
	if r.Energy <= 0 {
		t.Fatal("energy not computed")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run("LT", Options{Protocol: FSLite, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("LT", Options{Protocol: FSLite, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	if a.Stats.Get("net.messages") != b.Stats.Get("net.messages") {
		t.Fatal("nondeterministic message counts")
	}
}

func TestFSLiteBeatsBaselineOnRC(t *testing.T) {
	base, err := Run("RC", Options{Protocol: Baseline, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	fsl, err := Run("RC", Options{Protocol: FSLite, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if s := fsl.Speedup(base); s < 2 {
		t.Fatalf("RC FSLite speedup = %.2f, want > 2", s)
	}
	if e := fsl.NormalizedEnergy(base); e > 0.6 {
		t.Fatalf("RC FSLite energy = %.2f, want < 0.6", e)
	}
}

func TestFSDetectReportsRC(t *testing.T) {
	r, err := Run("RC", Options{Protocol: FSDetect, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Detections) == 0 {
		t.Fatal("FSDetect found nothing on RC")
	}
	d := r.Detections[0]
	if len(d.Writers) < 2 {
		t.Fatalf("detection writers = %v", d.Writers)
	}
}

func TestMicroTrueSharingCleanReport(t *testing.T) {
	r, err := Run("uTS", Options{Protocol: FSDetect, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Detections) != 0 {
		t.Fatalf("true-sharing micro flagged: %+v", r.Detections)
	}
}

func TestMicroPhasedGetsPrivatized(t *testing.T) {
	r, err := Run("uPH", Options{Protocol: FSLite, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Get("fs.privatizations") == 0 {
		t.Fatal("the §VI metadata reset should enable privatizing the phased block")
	}
}

func TestVerifiedRunsAllBenchmarks(t *testing.T) {
	// Every benchmark under every protocol with the oracle and SWMR checks
	// on: the definitive correctness sweep of the workload models.
	if testing.Short() {
		t.Skip("full verification sweep")
	}
	for _, b := range Benchmarks() {
		for _, p := range []Protocol{Baseline, FSDetect, FSLite} {
			r, err := Run(b.Name, Options{Protocol: p, Scale: 0.1, Verify: true})
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, p, err)
			}
			if len(r.Violations) > 0 {
				t.Fatalf("%s/%v: %s", b.Name, p, strings.Join(r.Violations[:1], ""))
			}
		}
	}
}

func TestOptionVariantsRunClean(t *testing.T) {
	opts := []Options{
		{Protocol: FSLite, TauP: 32, Scale: testScale},
		{Protocol: FSLite, SAMEntries: 64, Scale: testScale},
		{Protocol: FSLite, Granularity: 4, Scale: testScale},
		{Protocol: FSLite, ReaderOpt: true, Scale: testScale},
		{Protocol: Baseline, L1KB: 128, Scale: testScale},
		{Protocol: FSLite, OOO: true, Scale: testScale, Verify: true},
		{Protocol: FSLite, Variant: LayoutPadded, Scale: testScale},
		{Protocol: FSLite, Variant: LayoutHuron, Scale: testScale},
	}
	for i, o := range opts {
		r, err := Run("LL", o)
		if err != nil {
			t.Fatalf("option set %d: %v", i, err)
		}
		if len(r.Violations) > 0 {
			t.Fatalf("option set %d: %v", i, r.Violations[0])
		}
	}
}

func TestReaderOptSamePrivatizations(t *testing.T) {
	full, err := Run("RC", Options{Protocol: FSLite, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run("RC", Options{Protocol: FSLite, ReaderOpt: true, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Get("fs.privatizations") != opt.Stats.Get("fs.privatizations") {
		t.Fatalf("reader opt changed privatizations: %d vs %d",
			full.Stats.Get("fs.privatizations"), opt.Stats.Get("fs.privatizations"))
	}
}

func TestBenchmarkListings(t *testing.T) {
	if len(Benchmarks()) < 14 {
		t.Fatal("benchmark listing incomplete")
	}
	if len(FalseSharingBenchmarks()) != 8 || len(NoFalseSharingBenchmarks()) != 6 || len(HuronBenchmarks()) != 6 {
		t.Fatal("paper benchmark sets wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a"},
		Rows:    []TableRow{{Name: "x", Values: map[string]float64{"a": 1.5}}},
		GeoMean: map[string]float64{"a": 1.5}}
	s := tab.String()
	if !strings.Contains(s, "1.500") || !strings.Contains(s, "geomean") {
		t.Fatalf("table render: %s", s)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| x | 1.500 |") {
		t.Fatalf("markdown render: %s", md)
	}
}

func TestContendedLockLinesReported(t *testing.T) {
	// §VII utility beyond false sharing: a heavily contended truly shared
	// word (the uTS micro hammers one counter from all threads) shows up in
	// the contention report, not the false-sharing report.
	r, err := Run("uTS", Options{Protocol: FSDetect, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Detections) != 0 {
		t.Fatalf("contended word misreported as false sharing: %+v", r.Detections)
	}
	if len(r.Contended) == 0 {
		t.Fatal("contended word not reported")
	}
	// The contention set (writers plus readers: atomics do both) must
	// implicate multiple cores.
	set := map[int]bool{}
	for _, c := range r.Contended[0].Writers {
		set[c] = true
	}
	for _, c := range r.Contended[0].Readers {
		set[c] = true
	}
	if len(set) < 2 {
		t.Fatalf("contention report should implicate multiple cores: %+v", r.Contended[0])
	}
}

func TestFalseSharingNotReportedAsContended(t *testing.T) {
	r, err := Run("uWW", Options{Protocol: FSDetect, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Detections) == 0 {
		t.Fatal("false sharing not detected")
	}
	if len(r.Contended) != 0 {
		t.Fatalf("falsely shared line misreported as contention: %+v", r.Contended)
	}
}

func TestThreeLevelHierarchyOption(t *testing.T) {
	base, err := Run("RC", Options{Protocol: Baseline, L2KB: 256, Scale: testScale, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	fsl, err := Run("RC", Options{Protocol: FSLite, L2KB: 256, Scale: testScale, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{base, fsl} {
		if len(r.Violations) > 0 {
			t.Fatal(r.Violations[0])
		}
	}
	if s := fsl.Speedup(base); s < 2 {
		t.Fatalf("FSLite with L2 speedup = %.2f", s)
	}
}

func TestReductionRegionExtension(t *testing.T) {
	// §VII parallel reductions: with the region declared, FSLite privatizes
	// lines whose words are written by EVERY core and merges by summing.
	// The golden-memory oracle validates the final sums (the workload's
	// closing loads force the merge).
	fsl, err := Run("uRED", Options{Protocol: FSLite, Scale: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fsl.Violations) > 0 {
		t.Fatalf("reduction merge broke coherence: %s", fsl.Violations[0])
	}
	if fsl.Stats.Get("fs.privatizations") == 0 {
		t.Fatal("reduction region was never privatized")
	}
	// The same access pattern under the baseline ping-pongs the line; the
	// reduction privatization must win big.
	base, err := Run("uRED", Options{Protocol: Baseline, Scale: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Violations) > 0 {
		t.Fatalf("baseline reduction run broke coherence: %s", base.Violations[0])
	}
	if s := fsl.Speedup(base); s < 1.5 {
		t.Fatalf("reduction privatization speedup = %.2f, want > 1.5", s)
	}
	t.Logf("reduction speedup %.2fx (baseline %d cycles, fslite %d cycles)",
		fsl.Speedup(base), base.Cycles, fsl.Cycles)
}

func TestNonInclusiveOption(t *testing.T) {
	r, err := Run("RC", Options{Protocol: FSLite, NonInclusiveLLC: true, Scale: testScale, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) > 0 {
		t.Fatal(r.Violations[0])
	}
	if r.Stats.Get("fs.privatizations") == 0 {
		t.Fatal("no privatization under the sparse directory")
	}
}

func TestCSVRendering(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "b"},
		Rows:    []TableRow{{Name: "x", Values: map[string]float64{"a": 1.5, "b": 2}}},
		GeoMean: map[string]float64{"a": 1.5}}
	csv := tab.CSV()
	want := "benchmark,a,b\nx,1.500000,2.000000\ngeomean,1.500000,\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestReductionRunDeterministic(t *testing.T) {
	a, err := Run("uRED", Options{Protocol: FSLite, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("uRED", Options{Protocol: FSLite, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic reduction run: %d vs %d", a.Cycles, b.Cycles)
	}
}
