package main

import (
	"fmt"

	"fscoherence"
)

// cell is one simulation a workload runs: a workload model under one set of
// options.
type cell struct {
	id    string // "<bench>/<protocol>", unique within a workload
	bench string
	opt   fscoherence.Options

	// accesses is the cell's construction count of committed L1D accesses,
	// or 0 when the model's lock and barrier spins make the count depend on
	// timing (the Fig 14a apps).
	accesses uint64
}

// benchWorkload is one benchmark workload: the cells it times, plus one
// reduced-scale FSLite cell run once with the golden-memory oracle and SWMR
// scanning before any timing starts.
type benchWorkload struct {
	name   string
	cells  []cell
	verify cell

	// paperSpeedup is the paper's FSLite-over-Baseline geomean for these
	// cells (EXPERIMENTS.md), or 0 when the paper has no reference.
	paperSpeedup float64
}

const (
	// gridScale sizes the detailed mesh-64 uGRID cells: 115,200 committed
	// accesses each. Small cells give many rounds, and so steady medians.
	gridScale = 2
	// sampledScale sizes the sampled mesh-64 uGRID cell: 15,033,600
	// committed accesses, about a second a run, four 25k-access detailed
	// windows. Twice the size gave half the rounds (about ten in 40 s), so
	// medians over fewer samples.
	sampledScale = 261
	// sampleSpec keeps BENCH_6's 0.5% detail (50k:9950k) at half the
	// period, so the smaller cell still gets four windows and a cycle CI.
	sampleSpec = "25k:4975k"
	// paperFig14aSpeedup is the paper's Fig 14a FSLite geomean speedup.
	paperFig14aSpeedup = 1.39
)

// workloads returns every benchmark workload, in BENCHMARK.json order.
func workloads() []benchWorkload {
	var fig []cell
	for _, b := range fscoherence.FalseSharingBenchmarks() {
		for _, p := range []fscoherence.Protocol{fscoherence.Baseline, fscoherence.FSDetect, fscoherence.FSLite} {
			fig = append(fig, newCell(b, fscoherence.Options{Protocol: p, Scale: 1}))
		}
	}
	mesh := func(p fscoherence.Protocol, scale float64, sample string) cell {
		return newCell("uGRID", fscoherence.Options{Protocol: p, Scale: scale, Cores: 64, Topology: "mesh", Sample: sample})
	}
	gridVerify := mesh(fscoherence.FSLite, 1, "")
	gridVerify.opt.Verify = true
	figVerify := newCell("RC", fscoherence.Options{Protocol: fscoherence.FSLite, Scale: 0.5, Verify: true})
	return []benchWorkload{
		{name: "fig14a-8core", cells: fig, verify: figVerify, paperSpeedup: paperFig14aSpeedup},
		{
			name:   "grid-mesh64",
			cells:  []cell{mesh(fscoherence.Baseline, gridScale, ""), mesh(fscoherence.FSLite, gridScale, "")},
			verify: gridVerify,
		},
		{
			// FSLite alone: a Baseline cell's detailed windows would cost
			// about a third of the run and hide the warm path. Sampling
			// rejects Verify, so the oracle runs the cell unsampled at
			// reduced scale.
			name:   "sampled-grid64",
			cells:  []cell{mesh(fscoherence.FSLite, sampledScale, sampleSpec)},
			verify: gridVerify,
		},
	}
}

func newCell(bench string, opt fscoherence.Options) cell {
	c := cell{id: bench + "/" + opt.Protocol.String(), bench: bench, opt: opt}
	if bench == "uGRID" {
		c.accesses = gridAccesses(opt.Cores, opt.Scale)
	}
	return c
}

// gridAccesses is uGRID's construction count: each of the cores' threads
// commits an atomic increment, a load and a store per iteration over
// 300·scale iterations. It restates the model's arithmetic on purpose, so a
// change to the model or to how many accesses commit shows as a failed cell.
func gridAccesses(cores int, scale float64) uint64 {
	iters := int(300 * scale)
	if iters < 1 {
		iters = 1
	}
	return 3 * uint64(iters) * uint64(cores)
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}
