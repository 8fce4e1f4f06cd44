// Command fsbench is the repository's benchmark: it times the simulator on
// one workload and checks its outputs, as NOTES.md describes. Run it through
// run.sh from the repository root:
//
//	bash fsbench/run.sh --workload grid-mesh64 --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes
// the traced run and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// maxPaperErr is the largest relative error of fslite_speedup against the
// paper's figure that still counts as a correct reproduction.
const maxPaperErr = 0.02

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   report `json:"metrics"`
}

// hostInfo is the context recorded with every result.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig14a-8core, grid-mesh64 or sampled-grid64")
	seed := fs.Int64("seed", 1, "orders the cells in each round; no simulated result depends on it")
	seconds := fs.Int("seconds", 40, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build/fsbench-trace", "directory for the traced run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fsbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	host := hostContext(w.name, *seed)
	hostJSON, _ := json.Marshal(host) // a struct of plain fields always encodes
	fmt.Fprintf(stdout, "host %s\n", hostJSON)

	b := newBench(w, *seed)
	t0 := time.Now()
	verified := b.verify()
	fmt.Fprintf(stdout, "verified %s with the oracle and SWMR scans in %.2f s (untimed)\n", verified.id, time.Since(t0).Seconds())
	budget := time.Duration(*seconds) * time.Second
	var r report
	var problems []string
	if *trace == 0 {
		ph := &phase{setups: setupsPerRound, reference: true}
		b.measure(ph, budget, 2)
		r = b.endToEndMetrics(ph, peakRSSMB())
		printHostTimes(stdout, b, ph)
		fmt.Fprintf(stdout, "measured %d rounds of %d cells; times are sums of per-cell medians\n", ph.rounds, len(b.cells))
	} else {
		tf := traceFiles{dir: *out, prefix: fmt.Sprintf("%s-seed%d", w.name, *seed)}
		if r, problems, err = b.traced(budget, tf, host, stdout); err != nil {
			fmt.Fprintf(stderr, "fsbench: traced run: %v\n", err)
			return 1
		}
	}

	all := append([]*cellState{verified}, b.cells...)
	attempted, failed := tally(all)
	m := b.modelled()
	if m.speedup > 0 {
		fmt.Fprintf(stdout, "metric fslite_speedup %v x\nmetric fslite_energy %v x\n", m.speedup, m.energy)
	}
	if w.paperSpeedup > 0 {
		e := math.Abs(m.speedup-w.paperSpeedup) / w.paperSpeedup
		fmt.Fprintf(stdout, "metric fslite_speedup_paper_err %.4f frac (paper %.2f)\n", e, w.paperSpeedup)
		if e > maxPaperErr {
			problems = append(problems, fmt.Sprintf("fslite_speedup %.4f is %.4f from the paper's %.2f (limit %.2f)", m.speedup, e, w.paperSpeedup, maxPaperErr))
		}
	} else {
		fmt.Fprintln(stdout, "note: no paper reference for this workload; its modelled results are unvalidated")
	}
	fmt.Fprintf(stdout, "metric cells_failed %d/%d cells\n", failed, attempted)
	printReport(stdout, r)
	printDigest(stdout, b)
	for _, c := range all {
		for k, f := range c.failures {
			if k == 3 {
				fmt.Fprintf(stderr, "FAIL %s: %d more failures\n", c.id, len(c.failures)-k)
				break
			}
			fmt.Fprintf(stderr, "FAIL %s\n", f)
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "FAIL %s\n", p)
	}

	line, err := json.Marshal(result{Correct: failed == 0 && len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: r})
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printReport prints every metric by name, with its unit, sorted by name.
func printReport(w io.Writer, r report) {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %v %s\n", n, r[n].Value, r[n].Unit)
	}
}

// printHostTimes prints the untraced run's plain host times beside the
// bounded metrics. They are not bounded: the host's speed moves them
// (reference.go).
func printHostTimes(w io.Writer, b *bench, ph *phase) {
	run := sumMedians(ph, func(s *samples) []float64 { return s.run })
	var refs []float64
	for i := range ph.per {
		refs = append(refs, ph.per[i].ref...)
	}
	fmt.Fprintf(w, "metric wall_s %v s\n", sumMedians(ph, func(s *samples) []float64 { return s.wall }))
	fmt.Fprintf(w, "metric accesses_per_s %v 1/s\n", b.modelled().accesses/run)
	fmt.Fprintf(w, "metric ref_s %v s (median reference-kernel time)\n", median(refs))
}

// printDigest prints a digest over every cell's canonical stats, so two
// runs show at a glance whether any simulated result changed.
func printDigest(w io.Writer, b *bench) {
	var parts []string
	for _, c := range b.cells {
		d := "none"
		if c.ref != nil {
			d = c.ref.digest
		}
		parts = append(parts, c.id+"="+d)
	}
	sort.Strings(parts)
	fmt.Fprintf(w, "stats-digest %s %s\n", b.w.name, digestStrings(parts))
}

func hostContext(workload string, seed int64) hostInfo {
	return hostInfo{
		Workload:   workload,
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
