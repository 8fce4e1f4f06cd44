package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"fscoherence"
)

func TestFoldCannedProfile(t *testing.T) {
	const ms = int64(time.Millisecond)
	stacks := []stackSample{
		// A layer frame at the leaf, under the stepping loop.
		{[]string{"fscoherence/internal/coherence.(*Dir).handle", "fscoherence/internal/coherence.(*Dir).Tick", "fscoherence/internal/sim.(*System).stepCycle", "fscoherence/internal/sim.(*System).Run"}, 10 * ms},
		// A generic instance maps to its defining package.
		{[]string{"fscoherence/internal/coherence.buildDispatch[go.shape.uint8,go.shape.[4]int].func1", "fscoherence/internal/sim.(*System).stepCycle"}, 10 * ms},
		// Sub-packages fold into their parent layer.
		{[]string{"fscoherence/internal/coherence/spec.(*FSM).Check"}, 10 * ms},
		// Coroutine switch frames, under the generic iter.Pull wrapper.
		{[]string{"runtime.gogo", "runtime.coroswitch_m", "runtime.mcall", "runtime.coroswitch",
			"iter.Pull[go.shape.struct { Kind fscoherence/internal/cpu.OpKind; Addr uint64 },bool].func1.1",
			"fscoherence/internal/cpu.(*Ctx).do", "fscoherence/internal/workload.buildRC.func1"}, 10 * ms},
		// Standard-library time goes to the layer that called it.
		{[]string{"runtime.memmove", "sort.Slice", "fscoherence/internal/stats.(*Set).Names"}, 10 * ms},
		{[]string{"runtime.mallocgc", "fscoherence/internal/network.(*Network).Send"}, 10 * ms},
		// Garbage collection, including assists under a layer frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10 * ms},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "fscoherence/internal/memsys.NewMemory"}, 10 * ms},
		// The root package, the benchmark itself, the warm path (recursive
		// frames count once toward a cumulative total).
		{[]string{"fscoherence.assembleResult", "fscoherence.RunControlled"}, 10 * ms},
		{[]string{"main.(*bench).runCell"}, 10 * ms},
		{[]string{"fscoherence/internal/core.(*PAM).Update", "fscoherence/internal/coherence.(*Warmer).Access", "fscoherence/internal/coherence.(*Warmer).Access"}, 10 * ms},
		// No layer frame at all.
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, 10 * ms},
	}
	f := foldProfile(stacks)
	wantSelf := map[string]int64{
		"coherence": 30 * ms, "runtime.coro": 10 * ms, "stats": 10 * ms, "network": 10 * ms,
		"runtime.gc": 20 * ms, "fscoherence": 10 * ms, "bench": 10 * ms, "core": 10 * ms,
	}
	if !reflect.DeepEqual(f.SelfNS, wantSelf) {
		t.Errorf("self = %v, want %v", f.SelfNS, wantSelf)
	}
	wantCum := map[string]int64{
		"sim.(*System).stepCycle":    20 * ms,
		"coherence.(*Warmer).Access": 10 * ms,
	}
	if !reflect.DeepEqual(f.CumulativeNS, wantCum) {
		t.Errorf("cumulative = %v, want %v", f.CumulativeNS, wantCum)
	}
	if f.UnattributedNS != 10*ms || f.TotalNS != 120*ms || f.Samples != len(stacks) {
		t.Errorf("unattributed %d, total %d, samples %d", f.UnattributedNS, f.TotalNS, f.Samples)
	}
	if got := f.share(f.SelfNS["coherence"]); got != 0.25 {
		t.Errorf("coherence share = %v, want 0.25", got)
	}
}

func TestStripGenerics(t *testing.T) {
	for in, want := range map[string]string{
		"fscoherence/internal/sim.run":                                   "fscoherence/internal/sim.run",
		"fscoherence/internal/core.mask[go.shape.uint64].set":            "fscoherence/internal/core.mask.set",
		"iter.Pull[go.shape.struct { A [2]int; B string },bool].func1.1": "iter.Pull.func1.1",
	} {
		if got := stripGenerics(in); got != want {
			t.Errorf("stripGenerics(%q) = %q, want %q", in, got, want)
		}
	}
}

// Protobuf encoding helpers for a hand-built profile.
func pbTag(b []byte, num, wire int) []byte {
	return binary.AppendUvarint(b, uint64(num)<<3|uint64(wire))
}
func pbInt(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(pbTag(b, num, 0), v)
}
func pbMsg(b []byte, num int, p []byte) []byte {
	b = binary.AppendUvarint(pbTag(b, num, 2), uint64(len(p)))
	return append(b, p...)
}
func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbMsg(b, num, p)
}

func TestParseProfile(t *testing.T) {
	var p []byte
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "leaf", "inlined", "root"} {
		p = pbMsg(p, 6, []byte(s))
	}
	fn := func(id, name uint64) []byte { return pbInt(pbInt(nil, 1, id), 2, name) }
	p = pbMsg(p, 5, fn(1, 5))
	p = pbMsg(p, 5, fn(2, 6))
	p = pbMsg(p, 5, fn(3, 7))
	line := func(fid uint64) []byte { return pbInt(nil, 1, fid) }
	// Location 10 holds an inlined call: leaf inlined into "inlined".
	p = pbMsg(p, 4, pbMsg(pbMsg(pbInt(nil, 1, 10), 4, line(1)), 4, line(2)))
	p = pbMsg(p, 4, pbMsg(pbInt(nil, 1, 11), 4, line(3)))
	// One sample with packed fields, one with unpacked ones.
	p = pbMsg(p, 2, pbPacked(pbPacked(nil, 1, 10, 11), 2, 3, 30_000_000))
	p = pbMsg(p, 2, pbInt(pbInt(pbInt(nil, 1, 11), 2, 1), 2, 10_000_000))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"leaf", "inlined", "root"}, 30_000_000},
		{[]string{"root"}, 10_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if _, err := parseProfile(p[:len(p)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestMetricsMatchBenchmarkJSON checks BENCHMARK.json against the metric
// contract (name and unit syntax, count limits, bounds) and against the
// metrics this program reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}
	var wls []string
	for _, w := range spec.Workloads {
		name(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	var ours []string
	for _, w := range workloads() {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(wls, ours) {
		t.Errorf("workloads %v, program has %v", wls, ours)
	}
	check := func(kind string, ms []jsonMetric, defs []metricDef, bounded bool) {
		var got, want []metricDef
		for _, m := range ms {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: invalid unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = append(want, defs...)
		if !reflect.DeepEqual(sortDefs(got), sortDefs(want)) {
			t.Errorf("%s metrics %v, program reports %v", kind, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer(), false)
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !used["setup_s"] {
		t.Error("setup_s missing")
	}
}

func sortDefs(ds []metricDef) map[metricDef]bool {
	m := map[metricDef]bool{}
	for _, d := range ds {
		m[d] = true
	}
	return m
}

// TestCellsFailedAccounting forces failures through the real measurement
// path and checks that each failing cell counts once.
func TestCellsFailedAccounting(t *testing.T) {
	good := newCell("uGRID", fscoherence.Options{Protocol: fscoherence.FSLite, Scale: 0.5, Cores: 8})
	if good.accesses != 3*150*8 {
		t.Fatalf("construction count %d, want %d", good.accesses, 3*150*8)
	}
	wrong := good
	wrong.id = "uGRID/wrong-count"
	wrong.accesses++ // forced failure: the count cannot match
	broken := newCell("no-such-model", fscoherence.Options{})
	w := benchWorkload{name: "test", cells: []cell{good, wrong, broken}, verify: good}
	b := newBench(w, 1)
	vs := b.verify()
	b.measure(&phase{}, 0, 2)

	attempted, failed := tally(append([]*cellState{vs}, b.cells...))
	if attempted != 4 || failed != 2 {
		t.Errorf("tally = %d attempted, %d failed; want 4, 2", attempted, failed)
	}
	if len(vs.failures) != 0 || len(b.cells[0].failures) != 0 {
		t.Errorf("good cells failed: %v %v", vs.failures, b.cells[0].failures)
	}
	for _, c := range b.cells[1:] {
		if len(c.failures) == 0 {
			t.Errorf("%s: no failure recorded", c.id)
		}
	}

	// A digest that drifts from the reference fails the cell.
	c := &cellState{cell: good}
	ok := outcome{stats: b.cells[0].ref.stats, digest: "a"}
	c.check("public", ok)
	ok.digest = "b"
	c.check("decomposed", ok)
	if len(c.failures) != 1 || !strings.Contains(c.failures[0], "digest") {
		t.Errorf("digest drift: failures %v", c.failures)
	}
}

// TestReferenceRatios checks that a phase with the reference kernel on
// measures every fscoherence.Run and (*sim.System).Run call against the
// kernel times taken right before and after it.
func TestReferenceRatios(t *testing.T) {
	c := newCell("uGRID", fscoherence.Options{Protocol: fscoherence.FSLite, Scale: 0.5, Cores: 8})
	b := newBench(benchWorkload{name: "test", cells: []cell{c}, verify: c}, 1)
	ph := &phase{reference: true}
	b.measure(ph, 0, 2)
	s := ph.per[0]
	if len(s.wallRef) != 2 || len(s.runRef) != 2 || len(s.ref) != 6 {
		t.Fatalf("%d wallRef, %d runRef, %d ref samples; want 2, 2, 6", len(s.wallRef), len(s.runRef), len(s.ref))
	}
	for k := range s.wallRef {
		r0, r1, r2 := s.ref[3*k], s.ref[3*k+1], s.ref[3*k+2]
		if r0 <= 0 || r1 <= 0 || r2 <= 0 {
			t.Fatalf("reference times %v must be positive", s.ref)
		}
		if want := s.wall[k] / ((r0 + r1) / 2); math.Abs(s.wallRef[k]-want) > 1e-9*want {
			t.Errorf("wallRef[%d] = %v, want %v", k, s.wallRef[k], want)
		}
		if want := s.run[k] / ((r1 + r2) / 2); math.Abs(s.runRef[k]-want) > 1e-9*want {
			t.Errorf("runRef[%d] = %v, want %v", k, s.runRef[k], want)
		}
	}

	// Phases without the reference kernel record none of it.
	plain := &phase{}
	b.measure(plain, 0, 1)
	if p := plain.per[0]; len(p.ref)+len(p.wallRef)+len(p.runRef) != 0 {
		t.Errorf("reference samples recorded with the kernel off: %v %v %v", p.ref, p.wallRef, p.runRef)
	}
}
