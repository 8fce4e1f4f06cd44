package fscoherence

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fscoherence/internal/forensics"
	"fscoherence/internal/obs"
	"fscoherence/internal/workload"
)

// engineEquivalenceScale keeps the full workload × protocol × engine matrix
// affordable; the naive engine pays for every simulated cycle, so this is the
// most expensive test in the suite at larger scales.
const engineEquivalenceScale = 0.2

// TestEngineEquivalence is the tentpole acceptance test: for every registered
// workload under all three protocol modes, the quiescence-skipping engine and
// the naive cycle-stepped loop must produce identical cycle counts, identical
// counter snapshots, and identical detection lists. Skipping is a pure
// wall-clock optimization; any divergence here is a missed or late wake-up.
func TestEngineEquivalence(t *testing.T) {
	for _, bench := range workload.Names() {
		for _, mode := range []Protocol{Baseline, FSDetect, FSLite} {
			bench, mode := bench, mode
			t.Run(fmt.Sprintf("%s-%v", bench, mode), func(t *testing.T) {
				t.Parallel()
				naive, err := Run(bench, Options{Protocol: mode, Scale: engineEquivalenceScale, Engine: "naive"})
				if err != nil {
					t.Fatal(err)
				}
				skip, err := Run(bench, Options{Protocol: mode, Scale: engineEquivalenceScale, Engine: "skip"})
				if err != nil {
					t.Fatal(err)
				}
				if naive.Cycles != skip.Cycles {
					t.Errorf("cycles diverge: naive=%d skip=%d", naive.Cycles, skip.Cycles)
				}
				ns, ss := naive.Stats.Snapshot(), skip.Stats.Snapshot()
				if !reflect.DeepEqual(ns, ss) {
					for k, v := range ns {
						if ss[k] != v {
							t.Errorf("counter %s diverges: naive=%d skip=%d", k, v, ss[k])
						}
					}
					for k, v := range ss {
						if _, ok := ns[k]; !ok {
							t.Errorf("counter %s only under skip (=%d)", k, v)
						}
					}
				}
				if !reflect.DeepEqual(naive.Detections, skip.Detections) {
					t.Errorf("detections diverge:\nnaive: %v\nskip:  %v", naive.Detections, skip.Detections)
				}
				if !reflect.DeepEqual(naive.Contended, skip.Contended) {
					t.Errorf("contended lists diverge:\nnaive: %v\nskip:  %v", naive.Contended, skip.Contended)
				}
			})
		}
	}
}

// TestEngineEquivalenceBigMachine is the big-machine acceptance matrix:
// {naive, skip} × {flat, ring, mesh} × {8, 64, 256} cores on the scalable
// uGRID workload under FSLite. Every cell must produce identical cycle
// counts, byte-identical counter snapshots and identical detection lists —
// the due-only stepper and the NoC models' deterministic link contention are
// both on trial here. (`make equiv` picks
// this up via the TestEngine prefix.)
func TestEngineEquivalenceBigMachine(t *testing.T) {
	const scale = 0.1
	for _, cores := range []int{8, 64, 256} {
		for _, topo := range []string{"flat", "ring", "mesh"} {
			cores, topo := cores, topo
			t.Run(fmt.Sprintf("%s-%dc", topo, cores), func(t *testing.T) {
				t.Parallel()
				var ref *Result
				for _, engine := range []string{"naive", "skip"} {
					got, err := Run("uGRID", Options{
						Protocol: FSLite, Scale: scale, Engine: engine,
						Cores: cores, Topology: topo,
					})
					if err != nil {
						t.Fatalf("%s: %v", engine, err)
					}
					if ref == nil {
						ref = got
						continue
					}
					if got.Cycles != ref.Cycles {
						t.Errorf("%s: cycles diverge: naive=%d %s=%d", engine, ref.Cycles, engine, got.Cycles)
					}
					rs, gs := ref.Stats.Snapshot(), got.Stats.Snapshot()
					if !reflect.DeepEqual(rs, gs) {
						for k, v := range rs {
							if gs[k] != v {
								t.Errorf("%s: counter %s diverges: naive=%d got=%d", engine, k, v, gs[k])
							}
						}
						for k, v := range gs {
							if _, ok := rs[k]; !ok {
								t.Errorf("%s: counter %s only under %s (=%d)", engine, k, engine, v)
							}
						}
					}
					if !reflect.DeepEqual(got.Detections, ref.Detections) {
						t.Errorf("%s: detections diverge:\nnaive: %v\n%s: %v", engine, ref.Detections, engine, got.Detections)
					}
				}
			})
		}
	}
}

// TestEngineEquivalenceVerified reruns one false-sharing cell per protocol
// with the oracle and SWMR scanner enabled under both engines: the per-cycle
// invariant machinery must observe the same architectural history.
func TestEngineEquivalenceVerified(t *testing.T) {
	for _, mode := range []Protocol{Baseline, FSDetect, FSLite} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			naive, err := Run("LR", Options{Protocol: mode, Scale: engineEquivalenceScale, Verify: true, Engine: "naive"})
			if err != nil {
				t.Fatal(err)
			}
			skip, err := Run("LR", Options{Protocol: mode, Scale: engineEquivalenceScale, Verify: true, Engine: "skip"})
			if err != nil {
				t.Fatal(err)
			}
			if len(naive.Violations) != 0 || len(skip.Violations) != 0 {
				t.Fatalf("violations: naive=%v skip=%v", naive.Violations, skip.Violations)
			}
			if naive.Cycles != skip.Cycles {
				t.Errorf("cycles diverge: naive=%d skip=%d", naive.Cycles, skip.Cycles)
			}
			if !reflect.DeepEqual(naive.Stats.Snapshot(), skip.Stats.Snapshot()) {
				t.Error("counter snapshots diverge under verification")
			}
		})
	}
}

// TestEngineEquivalenceAttachments extends the naive-vs-skip comparison to
// the machine shapes and attachments the workload matrix above leaves out:
// the out-of-order core, a private L2 (behind an L1 small enough to spill
// into it), the non-inclusive LLC, the forensics
// recorder and interval metrics sampled every few cycles. Each cell must match
// in cycles, canonical counters and detections, and an attachment's own output
// (forensics lines, metric samples, trace events) must match too. The fault
// plan cell lives in internal/sim, where a FaultPlan can be installed.
func TestEngineEquivalenceAttachments(t *testing.T) {
	cells := []struct {
		name  string
		bench string
		opt   Options
	}{
		{"ooo", "RC", Options{Protocol: FSLite, OOO: true}},
		{"ooo-baseline", "LR", Options{Protocol: Baseline, OOO: true}},
		{"l2", "LR", Options{Protocol: FSLite, L1KB: 2, L2KB: 8}},
		{"l2-barrier", "BS", Options{Protocol: FSDetect, L1KB: 2, L2KB: 8}},
		{"noninclusive", "RC", Options{Protocol: FSLite, NonInclusiveLLC: true}},
		{"noninclusive-lock", "LR", Options{Protocol: FSLite, NonInclusiveLLC: true}},
		{"forensics", "RC", Options{Protocol: FSDetect}},
		{"metrics", "LR", Options{Protocol: FSLite}},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(engine string) (*Result, *forensics.Recorder, *obs.Obs) {
				opt := c.opt
				opt.Scale = 1
				opt.Engine = engine
				switch c.name {
				case "forensics":
					opt.Forensics = forensics.New()
				case "metrics":
					opt.Obs = obs.New(obs.Config{MetricsInterval: 37})
				}
				res, err := Run(c.bench, opt)
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				return res, opt.Forensics, opt.Obs
			}
			naive, nrec, nobs := run("naive")
			skip, srec, sobs := run("skip")
			if naive.Cycles != skip.Cycles {
				t.Errorf("cycles diverge: naive=%d skip=%d", naive.Cycles, skip.Cycles)
			}
			if n, s := statsDigest(naive), statsDigest(skip); n != s {
				t.Errorf("canonical counters diverge: naive=%s skip=%s", n, s)
			}
			if !reflect.DeepEqual(naive.Detections, skip.Detections) {
				t.Errorf("detections diverge:\nnaive: %v\nskip:  %v", naive.Detections, skip.Detections)
			}
			if !reflect.DeepEqual(naive.Contended, skip.Contended) {
				t.Errorf("contended lists diverge:\nnaive: %v\nskip:  %v", naive.Contended, skip.Contended)
			}
			if nrec != nil {
				if len(nrec.Lines()) == 0 {
					t.Error("forensics recorded no lines")
				}
				if !reflect.DeepEqual(nrec.Lines(), srec.Lines()) {
					t.Error("forensics reports diverge")
				}
			}
			if nobs != nil {
				ns, ss := nobs.Metrics.Samples(), sobs.Metrics.Samples()
				if len(ns) < 10 {
					t.Errorf("only %d metric samples", len(ns))
				}
				if !reflect.DeepEqual(ns, ss) {
					t.Errorf("metric samples diverge: naive=%d samples, skip=%d", len(ns), len(ss))
				}
				if !reflect.DeepEqual(nobs.Tracer.Events(), sobs.Tracer.Events()) {
					t.Error("trace events diverge")
				}
			}
		})
	}
}

// traceUnder runs the golden lock workload (LR under FSLite) with the full
// observability attachment on the given engine and returns the exported
// Chrome trace bytes.
func traceUnder(t *testing.T, engine string) []byte {
	t.Helper()
	o := obs.New(obs.Config{})
	if _, err := Run("LR", Options{Protocol: FSLite, Scale: 0.5, Obs: o, Engine: engine}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, o.Tracer.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineGoldenTraceIdentical pins the strongest equivalence property:
// with event tracing enabled (which forces the skipping engine to honor every
// cycle at which any event fires), the exported trace of the golden lock run
// is byte-identical between engines — same events, same cycle stamps, same
// order.
func TestEngineGoldenTraceIdentical(t *testing.T) {
	naive := traceUnder(t, "naive")
	skip := traceUnder(t, "skip")
	if !bytes.Equal(naive, skip) {
		t.Fatalf("golden trace diverges between engines: naive=%d bytes, skip=%d bytes", len(naive), len(skip))
	}
}

// TestEngineFigTablesIdentical renders one full figure table under each
// engine (via the Runner-level engine default, as fsexp -engine does) and
// compares the rendered output byte-for-byte.
func TestEngineFigTablesIdentical(t *testing.T) {
	render := func(engine string) string {
		r := NewRunner(0)
		r.SetEngine(engine)
		return Fig14Speedup(r, engineEquivalenceScale).String() +
			Fig13MissFractions(r, engineEquivalenceScale).String()
	}
	naive := render("naive")
	skip := render("skip")
	if naive != skip {
		t.Fatalf("figure tables diverge between engines:\n--- naive ---\n%s\n--- skip ---\n%s", naive, skip)
	}
}

// dispatchPinned is the uRW FSLite result (cycles and canonical stats
// digest) per topology, as last proven identical between the spec-table
// dispatch and the hand-written switches it replaced.
var dispatchPinned = map[string]string{
	"flat": "cycles=1381 stats=42b487ffe3cedbce35c0a8a7d6be18af4b32e6b3fac4acadcdc684688e430664",
	"mesh": "cycles=1288 stats=9b0604522183daabff0c77035b8f9460f30cc74a68b31239d8769291a4f5c0c7",
}

// TestEngineDispatchEquivalence gates `make equiv` on the spec-driven
// dispatch layer: under every engine × topology combination, routing
// coherence messages through the table-driven interpreter built from
// internal/coherence/spec must reproduce the pinned result. The pins were
// recorded while the hand-written switch dispatch still existed and agreed
// with the interpreter, so any divergence here is a hole in the spec tables
// or a change in a handler.
func TestEngineDispatchEquivalence(t *testing.T) {
	for _, engine := range []string{"naive", "skip"} {
		for _, topo := range []string{"flat", "mesh"} {
			engine, topo := engine, topo
			t.Run(fmt.Sprintf("%s-%s-%v", engine, topo, FSLite), func(t *testing.T) {
				t.Parallel()
				res, err := Run("uRW", Options{Protocol: FSLite, Scale: engineEquivalenceScale, Engine: engine, Topology: topo})
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("cycles=%d stats=%s", res.Cycles, statsDigest(res)); got != dispatchPinned[topo] {
					t.Errorf("result moved:\n  got:    %s\n  pinned: %s", got, dispatchPinned[topo])
				}
			})
		}
	}
}
