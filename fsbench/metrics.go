package main

import (
	"math"
	"sort"

	"fscoherence"
	"fscoherence/internal/stats"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"wall_ref", "ref"},
	{"setup_s", "s"},
	{"accesses_per_ref", "1/ref"},
	{"peak_rss_mb", "MB"},
	{"sim_cycles", "cycles"},
}

// counterMetrics are the per-layer counts: canonical counters summed over
// one execution of every cell. They repeat exactly.
var counterMetrics = []struct {
	metricDef
	counter string
}{
	{metricDef{"coherence.l1d_accesses", "count"}, stats.CtrL1DAccesses},
	{metricDef{"coherence.l1d_misses", "count"}, stats.CtrL1DMisses},
	{metricDef{"coherence.llc_accesses", "count"}, stats.CtrLLCAccesses},
	{metricDef{"coherence.dir_invalidations", "count"}, stats.CtrDirInval},
	{metricDef{"coherence.dir_interventions", "count"}, stats.CtrDirInterv},
	{metricDef{"coherence.dir_pending_queued", "count"}, stats.CtrDirPendingQ},
	{metricDef{"network.messages", "count"}, stats.CtrNetMessages},
	{metricDef{"network.bytes", "count"}, stats.CtrNetBytes},
	{metricDef{"network.hops", "count"}, stats.CtrNetHops},
	{metricDef{"network.link_wait", "cycles"}, stats.CtrNetLinkWait},
	{metricDef{"cpu.ops_committed", "count"}, stats.CtrOpsCommitted},
	{metricDef{"cpu.stall_cycles", "cycles"}, stats.CtrStallCycles},
	{metricDef{"cpu.compute_cycles", "cycles"}, stats.CtrComputeCycles},
	{metricDef{"core.pam_updates", "count"}, stats.CtrPAMUpdates},
	{metricDef{"core.sam_lookups", "count"}, stats.CtrSAMLookups},
	{metricDef{"core.privatizations", "count"}, stats.CtrFSPrivatized},
	{metricDef{"core.prv_merges", "count"}, stats.CtrFSPrvMerges},
	{metricDef{"core.chk_requests", "count"}, stats.CtrFSChkRequests},
	{metricDef{"core.terminations", "count"}, stats.CtrFSTerminations},
	{metricDef{"memsys.mem_reads", "count"}, stats.CtrMemReads},
	{metricDef{"memsys.mem_writes", "count"}, stats.CtrMemWrites},
}

// shareMetrics are per-layer shares of the traced run's CPU profile: a
// layer's self time, or a function's cumulative time (cum set).
var shareMetrics = []struct {
	metricDef
	key string
	cum bool
}{
	{metricDef{"sim.cpu_share", "frac"}, "sim", false},
	{metricDef{"sim.step_share", "frac"}, "sim.(*System).stepCycle", true},
	{metricDef{"sim.skip_share", "frac"}, "sim.(*System).skipAhead", true},
	{metricDef{"coherence.cpu_share", "frac"}, "coherence", false},
	{metricDef{"coherence.warm_share", "frac"}, "coherence.(*Warmer).Access", true},
	{metricDef{"network.cpu_share", "frac"}, "network", false},
	{metricDef{"cpu.cpu_share", "frac"}, "cpu", false},
	{metricDef{"core.cpu_share", "frac"}, "core", false},
	{metricDef{"memsys.cpu_share", "frac"}, "memsys", false},
	{metricDef{"stats.cpu_share", "frac"}, "stats", false},
	{metricDef{"workload.cpu_share", "frac"}, "workload", false},
	{metricDef{"runtime.coro_share", "frac"}, "runtime.coro", false},
}

// perLayerOther are the per-layer metrics computed by hand in layerMetrics.
var perLayerOther = []metricDef{
	{"workload.build_s", "s"},
	{"sim.new_s", "s"},
	{"sim.run_s", "s"},
	{"energy.compute_s", "s"},
	{"sim.ns_per_cycle", "ns"},
	{"coherence.ns_per_msg", "ns"},
	{"network.ns_per_msg", "ns"},
	{"cpu.ns_per_op", "ns"},
	{"coherence.l1d_miss_ratio", "frac"},
	{"sample.windows", "count"},
	{"sample.detailed_frac", "frac"},
	{"sample.cycles_ci95_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_share", "frac"},
	{"profile.unattributed_share", "frac"},
}

// perLayer lists every per-layer metric.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range counterMetrics {
		out = append(out, m.metricDef)
	}
	for _, m := range shareMetrics {
		out = append(out, m.metricDef)
	}
	return append(out, perLayerOther...)
}

// value is one metric as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values by name.
type report map[string]value

func (r report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r[name] = value{v, d.unit}
			return
		}
	}
	panic("fsbench: undefined metric " + name)
}

// median returns the middle value (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sumMedians adds up each cell's median of one sample series: a workload's
// time is the sum of its cells' typical times.
func sumMedians(ph *phase, get func(*samples) []float64) float64 {
	t := 0.0
	for i := range ph.per {
		t += median(get(&ph.per[i]))
	}
	return t
}

// modelled holds the simulated results of a workload's cells, from their
// reference outcomes.
type modelled struct {
	cycles, accesses float64
	speedup, energy  float64 // FSLite over Baseline geomeans, 0 without pairs
}

func (b *bench) modelled() modelled {
	var m modelled
	type pair struct{ base, fsl *outcome }
	pairs := map[string]*pair{}
	for _, c := range b.cells {
		if c.ref == nil {
			continue
		}
		m.cycles += float64(c.ref.cycles)
		m.accesses += float64(c.ref.accesses())
		p := pairs[c.bench]
		if p == nil {
			p = &pair{}
			pairs[c.bench] = p
		}
		switch c.opt.Protocol {
		case fscoherence.Baseline:
			p.base = c.ref
		case fscoherence.FSLite:
			p.fsl = c.ref
		}
	}
	var logS, logE float64
	n := 0
	for _, p := range pairs {
		if p.base == nil || p.fsl == nil {
			continue
		}
		logS += math.Log(float64(p.base.cycles) / float64(p.fsl.cycles))
		logE += math.Log(p.fsl.energy / p.base.energy)
		n++
	}
	if n > 0 {
		m.speedup = math.Exp(logS / float64(n))
		m.energy = math.Exp(logE / float64(n))
	}
	return m
}

// endToEndMetrics computes the untraced run's metrics.
func (b *bench) endToEndMetrics(ph *phase, peakRSSMB float64) report {
	m := b.modelled()
	r := report{}
	r.set(endToEnd, "wall_ref", sumMedians(ph, func(s *samples) []float64 { return s.wallRef }))
	r.set(endToEnd, "setup_s", sumMedians(ph, func(s *samples) []float64 { return s.setup }))
	r.set(endToEnd, "accesses_per_ref", m.accesses/sumMedians(ph, func(s *samples) []float64 { return s.runRef }))
	r.set(endToEnd, "peak_rss_mb", peakRSSMB)
	r.set(endToEnd, "sim_cycles", m.cycles)
	return r
}

// layerMetrics computes the traced run's metrics from the untraced phase's
// allocation counts, the traced phase's times and the profile fold.
func (b *bench) layerMetrics(untraced, traced *phase, f profileFold) report {
	defs := perLayer()
	r := report{}
	sum := map[string]float64{} // counter name → total over the cells
	var windows, sampledAcc, detailed, ci float64
	profiled := map[string]float64{} // counter name → total over profiled executions
	for i, c := range b.cells {
		if c.ref == nil {
			continue
		}
		for _, n := range []string{stats.CtrNetMessages, stats.CtrOpsCommitted, stats.CtrCycles} {
			profiled[n] += float64(b.execs[i]) * float64(c.ref.stats.Get(n))
		}
		for _, m := range counterMetrics {
			sum[m.counter] += float64(c.ref.stats.Get(m.counter))
		}
		if s := c.ref.sampled; s != nil {
			windows += float64(s.Windows)
			sampledAcc += float64(s.Accesses)
			detailed += float64(s.Detailed)
			if e, ok := c.ref.sampledCycles(); ok {
				ci = math.Max(ci, e.RelCI())
			}
		}
	}
	for _, m := range counterMetrics {
		r.set(defs, m.name, sum[m.counter])
	}
	for _, m := range shareMetrics {
		ns := f.SelfNS[m.key]
		if m.cum {
			ns = f.CumulativeNS[m.key]
		}
		r.set(defs, m.name, f.share(ns))
	}
	perCount := func(layer, counter string) float64 {
		if profiled[counter] == 0 {
			return 0
		}
		return float64(f.SelfNS[layer]) / profiled[counter]
	}
	r.set(defs, "workload.build_s", sumMedians(traced, func(s *samples) []float64 { return s.build }))
	r.set(defs, "sim.new_s", sumMedians(traced, func(s *samples) []float64 { return s.newSys }))
	r.set(defs, "sim.run_s", sumMedians(traced, func(s *samples) []float64 { return s.run }))
	r.set(defs, "energy.compute_s", sumMedians(traced, func(s *samples) []float64 { return s.energy }))
	r.set(defs, "sim.ns_per_cycle", perCount("sim", stats.CtrCycles))
	r.set(defs, "coherence.ns_per_msg", perCount("coherence", stats.CtrNetMessages))
	r.set(defs, "network.ns_per_msg", perCount("network", stats.CtrNetMessages))
	r.set(defs, "cpu.ns_per_op", perCount("cpu", stats.CtrOpsCommitted))
	missRatio := 0.0
	if a := sum[stats.CtrL1DAccesses]; a > 0 {
		missRatio = sum[stats.CtrL1DMisses] / a
	}
	r.set(defs, "coherence.l1d_miss_ratio", missRatio)
	r.set(defs, "sample.windows", windows)
	detailedFrac := 0.0
	if sampledAcc > 0 {
		detailedFrac = detailed / sampledAcc
	}
	r.set(defs, "sample.detailed_frac", detailedFrac)
	r.set(defs, "sample.cycles_ci95_frac", ci)
	r.set(defs, "runtime.alloc_mb", sumMedians(untraced, func(s *samples) []float64 { return s.allocMB }))
	r.set(defs, "runtime.mallocs", sumMedians(untraced, func(s *samples) []float64 { return s.mallocs }))
	r.set(defs, "runtime.gc_cycles", sumMedians(untraced, func(s *samples) []float64 { return s.gcs }))
	var gc, user float64
	for i := range untraced.per {
		for k, g := range untraced.per[i].gcCPU {
			gc += g
			user += untraced.per[i].userCPU[k]
		}
	}
	gcShare := 0.0
	if gc+user > 0 {
		gcShare = gc / (gc + user)
	}
	r.set(defs, "runtime.gc_share", gcShare)
	r.set(defs, "profile.unattributed_share", f.share(f.UnattributedNS))
	return r
}
