// Command fsreport runs FSDetect on a workload and prints a detailed
// false-sharing report: the detected lines, the cores involved, episode
// counts and the supporting protocol statistics — the "detector as a
// diagnostics tool" use case of §II. The JSON schema includes per-line
// detection timelines and the L1D miss-latency histogram, both sourced from
// the unified observability layer.
//
// Usage:
//
//	fsreport -bench LR
//	fsreport -bench LR -json
//	fsreport -bench LR -trace out.json -metrics out.csv
//	fsreport -bench RC -html report.html
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fscoherence"
	"fscoherence/internal/obs"
)

func main() {
	var (
		bench    = flag.String("bench", "RC", "benchmark code (fsrun -list shows all)")
		scale    = flag.Float64("scale", 1.0, "workload size multiplier")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON")
		variant  = flag.String("variant", "default", "default | padded (alias manual) | huron")
		traceOut = flag.String("trace", "", "also write the FSDetect run's Chrome trace-event JSON to this file")
		metrics  = flag.String("metrics", "", "also write the FSDetect run's interval metrics CSV to this file")
		filter   = flag.String("trace-filter", "", "override the trace filter (default: detector events only)")
		htmlOut  = flag.String("html", "", "write a self-contained HTML forensics report (heatmaps, timelines, accuracy) to this file")
		sampled  = flag.String("sample", "", "interval sampling spec detailed:warming in committed accesses (e.g. 50k:950k); incompatible with -trace/-metrics/-html")
	)
	flag.Parse()
	if *sampled != "" {
		// Sampled runs carry no observability: warming commits emit no events.
		switch {
		case *traceOut != "":
			fatal(fmt.Errorf("-sample is incompatible with -trace (warming emits no events)"))
		case *metrics != "":
			fatal(fmt.Errorf("-sample is incompatible with -metrics (warming emits no events)"))
		case *filter != "":
			fatal(fmt.Errorf("-sample is incompatible with -trace-filter (warming emits no events)"))
		case *htmlOut != "":
			fatal(fmt.Errorf("-sample is incompatible with -html (forensics needs the fully-timed run)"))
		}
	}

	v, err := fscoherence.ParseVariant(*variant)
	if err != nil {
		fatal(err)
	}

	o := detectionObs()
	if *filter != "" {
		f, err := obs.ParseFilter(*filter, fscoherence.DefaultBlockSize())
		if err != nil {
			fatal(err)
		}
		o = obs.New(obs.Config{Filter: f})
	}
	if *sampled != "" {
		o = nil // warming commits emit no events; timelines are omitted
	}

	base, err := fscoherence.Run(*bench, fscoherence.Options{Protocol: fscoherence.Baseline, Variant: v, Scale: *scale, Sample: *sampled})
	if err != nil {
		fatal(err)
	}
	det, err := fscoherence.Run(*bench, fscoherence.Options{Protocol: fscoherence.FSDetect, Variant: v, Scale: *scale, Obs: o, Sample: *sampled})
	if err != nil {
		fatal(err)
	}

	rep := buildReport(*bench, base, det)

	if err := o.WriteFiles(*traceOut, *metrics); err != nil {
		fatal(err)
	}

	if *htmlOut != "" {
		data, err := buildHTMLData(*bench, v, *scale, rep)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatal(err)
		}
		if err := writeHTML(f, data); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[html report: %d detail lines, %d accuracy rows -> %s]\n",
			len(data.Lines), len(data.Accuracy), *htmlOut)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("FSDetect report for %s (%s layout)\n", rep.Benchmark, v)
	if s := rep.Sampled; s != nil {
		cyc := s.Estimates["sim.cycles"]
		fmt.Printf("  run length          %.0f ± %.0f cycles (95%% CI; sampled %s, %d windows, %.2f%% detail; detection overhead %.2f%%)\n",
			cyc.Mean, cyc.CI95, s.Spec, s.Windows, 100*float64(s.Detailed)/float64(s.Accesses), rep.OverheadPct)
	} else {
		fmt.Printf("  run length          %d cycles (detection overhead %.2f%%)\n", rep.Cycles, rep.OverheadPct)
	}
	fmt.Printf("  L1D miss fraction   %.2f%%\n", 100*rep.L1MissFraction)
	fmt.Printf("  invalidations       %d, interventions %d\n", rep.Invalidations, rep.Interventions)
	fmt.Printf("  metadata messages   %d (%d phantom)\n", rep.MetadataMsgs, rep.PhantomMsgs)
	if h := rep.MissLatency; h != nil {
		fmt.Printf("  L1D miss latency    n=%d mean=%.1f min=%d max=%d cycles\n", h.Count, h.Mean, h.Min, h.Max)
	}
	if len(rep.Lines) == 0 {
		fmt.Println("\nno harmful false sharing detected")
	} else {
		fmt.Printf("\n%d falsely shared line(s):\n", len(rep.Lines))
		for _, l := range rep.Lines {
			fmt.Printf("  %-12s writers=%v readers=%v episodes=%d first-at=%d\n",
				l.Address, l.Writers, l.Readers, l.Episodes, l.FirstCycle)
			for _, te := range l.Timeline {
				fmt.Printf("    cycle %-10d %-13s episode %d\n", te.Cycle, te.Event, te.Episode)
			}
		}
	}
	if len(rep.Contended) > 0 {
		fmt.Printf("\n%d contended truly-shared line(s) (§VII — likely synchronization variables):\n", len(rep.Contended))
		for _, l := range rep.Contended {
			fmt.Printf("  %-12s writers=%v readers=%v episodes=%d first-at=%d\n",
				l.Address, l.Writers, l.Readers, l.Episodes, l.FirstCycle)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsreport:", err)
	os.Exit(1)
}
