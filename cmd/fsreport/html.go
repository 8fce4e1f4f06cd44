package main

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"time"

	"fscoherence"
	"fscoherence/internal/forensics"
)

// The HTML report is the forensics counterpart of the textual/JSON report:
// a single self-contained file (inline CSS, no external assets) with
//
//   - per-line byte x core access heatmaps from the flight recorder,
//   - the decision timeline (detect, contended, privatize, abort,
//     terminate-with-cause) for each hot line,
//   - repair efficacy: invalidations and misses before vs. after the first
//     privatization of each repaired line,
//   - a detection-accuracy table (precision / recall / mean time to
//     detection against workload ground truth) across example workloads,
//   - a campaign summary for the sweep that produced the table.

// htmlLineCap bounds the per-line detail sections; htmlTimelineCap bounds
// decisions shown per line. Both exist to keep the report readable (and its
// size bounded) on pathological workloads; the caps are reported in-page.
const (
	htmlLineCap     = 8
	htmlTimelineCap = 48
)

// accuracyBenches is the example-workload set scored in the accuracy table.
// RC (refcount) and LL (lock-free list) are the paper's motivating examples;
// the micros pin the detector's corner cases; uTS is the true-sharing
// control that must stay at zero false positives.
var accuracyBenches = []string{"RC", "LL", "uWW", "uRW", "uPH", "uTS"}

type htmlData struct {
	Benchmark string
	Variant   string
	Scale     float64
	Generated string

	Rep report

	Lines        []htmlLine
	LinesDropped int
	BlockSize    int

	Accuracy []accuracyRow
	Campaign campaignRow
}

type htmlLine struct {
	Addr     string
	Label    string
	Reads    uint64
	Writes   uint64
	Cores    int
	Detected bool

	// Repair efficacy (meaningful when PrvEpisodes > 0).
	PrvEpisodes int
	PrvCycle    uint64
	InvBefore   uint64
	InvAfter    uint64
	MissBefore  uint64
	MissAfter   uint64
	AvgMissLatB float64
	AvgMissLatA float64

	Heat             []heatRow
	Timeline         []decisionRow
	TimelineDropped  int
	TimelineTotalLen int
}

type heatRow struct {
	Core  int
	Cells []heatCell
}

type heatCell struct {
	Style template.CSS
	Title string
}

type decisionRow struct {
	Cycle uint64
	Kind  string
	Core  string
	Cause string
	Arg   uint64
}

type accuracyRow struct {
	Bench     string
	Positives int
	TP        int
	FP        int
	FN        int
	Mixed     int
	Precision float64
	Recall    float64
	MeanTTD   float64
	Control   bool // no exercised positives: a true-sharing control row
	Pass      bool
}

type campaignRow struct {
	Cells    int
	MemoHits int
	Errors   int
	TaskTime string
	Workers  int
	Cycles   uint64
	Detects  uint64
}

// buildHTMLData assembles the full report model: the FSLite detail run's
// recorder (heatmaps, timelines, repair efficacy), the FSDetect accuracy
// sweep and the campaign summary.
func buildHTMLData(bench string, v fscoherence.Variant, scale float64, rep report) (*htmlData, error) {
	d := &htmlData{
		Benchmark: bench,
		Variant:   v.String(),
		Scale:     scale,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Rep:       rep,
	}

	// Detail run: the selected benchmark under FSLite with the flight
	// recorder attached, so the report shows repairs, not just detections.
	rec := forensics.New()
	res, err := fscoherence.Run(bench, fscoherence.Options{
		Protocol: fscoherence.FSLite, Variant: v, Scale: scale, Forensics: rec,
	})
	if err != nil {
		return nil, err
	}
	d.BlockSize = rec.BlockSize()
	d.Lines, d.LinesDropped = detailLines(rec, res.GroundTruth)

	// Accuracy sweep: FSDetect with a per-cell recorder across the example
	// workloads, scored against each workload's exported ground truth.
	eng := fscoherence.NewRunner(0)
	benches := accuracyBenches
	seen := false
	for _, b := range benches {
		seen = seen || b == bench
	}
	if !seen {
		benches = append(append([]string{}, benches...), bench)
	}
	recs := make([]*forensics.Recorder, len(benches))
	futs := make([]*fscoherence.Future, len(benches))
	for i, b := range benches {
		recs[i] = forensics.New()
		futs[i] = eng.Submit(b, fscoherence.Options{Protocol: fscoherence.FSDetect, Scale: scale, Forensics: recs[i]})
	}
	for i, b := range benches {
		r, err := futs[i].Result()
		if err != nil {
			return nil, fmt.Errorf("accuracy cell %s: %w", b, err)
		}
		acc := forensics.Score(recs[i], r.GroundTruth)
		row := accuracyRow{
			Bench: b, Positives: acc.Positives, TP: acc.TP, FP: acc.FP, FN: acc.FN,
			Mixed: acc.Mixed, Precision: acc.Precision, Recall: acc.Recall, MeanTTD: acc.MeanTTD,
			Control: acc.Positives == 0,
		}
		row.Pass = row.Control && acc.FP == 0 || !row.Control && acc.Recall >= 0.9 && acc.Precision >= 0.9
		d.Accuracy = append(d.Accuracy, row)
	}

	eng.Wait()
	er := eng.Report()
	d.Campaign = campaignRow{
		Cells: er.Executed, MemoHits: er.MemoHits, Errors: er.Errors,
		TaskTime: er.TaskTime.Round(time.Millisecond).String(), Workers: eng.Workers(),
		Cycles: er.Metrics["cycles"], Detects: er.Metrics["detections"],
	}
	return d, nil
}

// detailLines renders the recorder's hottest lines: every line that was
// detected or privatized first, then the busiest remainder, capped at
// htmlLineCap.
func detailLines(rec *forensics.Recorder, gt *forensics.GroundTruth) ([]htmlLine, int) {
	lines := rec.Lines()
	sort.SliceStable(lines, func(i, j int) bool {
		pi, pj := lineRank(lines[i]), lineRank(lines[j])
		if pi != pj {
			return pi > pj
		}
		return lines[i].Reads+lines[i].Writes > lines[j].Reads+lines[j].Writes
	})
	dropped := 0
	if len(lines) > htmlLineCap {
		dropped = len(lines) - htmlLineCap
		lines = lines[:htmlLineCap]
	}
	out := make([]htmlLine, 0, len(lines))
	for _, ln := range lines {
		_, det := ln.DetectCycle()
		h := htmlLine{
			Addr: ln.Addr.String(), Reads: ln.Reads, Writes: ln.Writes,
			Cores: len(ln.Cores()), Detected: det,
			PrvEpisodes: ln.PrvEpisodes, PrvCycle: ln.PrvCycle,
			InvBefore: ln.InvBefore, InvAfter: ln.InvAfter,
			MissBefore: ln.MissBefore, MissAfter: ln.MissAfter,
		}
		if gt != nil {
			h.Label = gt.Label(ln.Addr).String()
		}
		if ln.MissBefore > 0 {
			h.AvgMissLatB = float64(ln.MissCyclesBefore) / float64(ln.MissBefore)
		}
		if ln.MissAfter > 0 {
			h.AvgMissLatA = float64(ln.MissCyclesAfter) / float64(ln.MissAfter)
		}
		h.Heat = heatRows(ln, rec.BlockSize())
		h.Timeline, h.TimelineDropped = timelineRows(ln.Timeline)
		h.TimelineTotalLen = len(ln.Timeline)
		out = append(out, h)
	}
	return out, dropped
}

func lineRank(ln *forensics.Line) int {
	if ln.PrvEpisodes > 0 {
		return 2
	}
	if _, ok := ln.DetectCycle(); ok {
		return 1
	}
	return 0
}

// heatRows renders the byte x core access matrix as colored cells. Intensity
// is normalized per line so the layout of sharing within the line stands out
// regardless of absolute traffic.
func heatRows(ln *forensics.Line, blockSize int) []heatRow {
	var max uint64
	for _, c := range ln.Cores() {
		for _, n := range ln.Heat(c) {
			if n > max {
				max = n
			}
		}
	}
	if max == 0 {
		return nil
	}
	var rows []heatRow
	for _, c := range ln.Cores() {
		heat := ln.Heat(c)
		row := heatRow{Core: c, Cells: make([]heatCell, blockSize)}
		for b := 0; b < blockSize; b++ {
			var n uint64
			if b < len(heat) {
				n = heat[b]
			}
			alpha := float64(n) / float64(max)
			row.Cells[b] = heatCell{
				Style: template.CSS(fmt.Sprintf("background:rgba(196,49,75,%.3f)", alpha)),
				Title: fmt.Sprintf("core %d byte %d: %d accesses", c, b, n),
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func timelineRows(ds []forensics.Decision) ([]decisionRow, int) {
	dropped := 0
	if len(ds) > htmlTimelineCap {
		// Keep the head and tail: the first decisions show detection, the
		// last ones show how the final episode ended.
		head := ds[:htmlTimelineCap/2]
		tail := ds[len(ds)-htmlTimelineCap/2:]
		dropped = len(ds) - len(head) - len(tail)
		ds = append(append([]forensics.Decision{}, head...), tail...)
	}
	out := make([]decisionRow, len(ds))
	for i, dec := range ds {
		core := "—"
		if dec.Core >= 0 {
			core = fmt.Sprintf("%d", dec.Core)
		}
		out[i] = decisionRow{Cycle: dec.Cycle, Kind: dec.Kind.String(), Core: core, Cause: dec.Cause, Arg: dec.Arg}
	}
	return out, dropped
}

var htmlTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"pct": func(f float64) float64 { return 100 * f },
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>False-sharing forensics — {{.Benchmark}}</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1c2730; padding: 0 1rem; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; border-bottom: 1px solid #d8dee4; padding-bottom: .25rem; }
h3 { font-size: 1rem; margin-bottom: .25rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td { border: 1px solid #d8dee4; padding: .25rem .55rem; text-align: right; }
th { background: #f2f5f7; } td.l, th.l { text-align: left; }
.heat { border-collapse: collapse; } .heat td { border: 1px solid #eceff1; width: 11px; height: 14px; padding: 0; }
.heat th { border: none; background: none; font-weight: normal; font-size: 11px; padding-right: .4rem; }
.pass { color: #1e7e34; font-weight: 600; } .fail { color: #c4314b; font-weight: 600; }
.muted { color: #68767f; font-size: 12px; }
.badge { display: inline-block; font-size: 11px; padding: 0 .4rem; border-radius: 3px; background: #eceff1; margin-left: .4rem; }
code { background: #f2f5f7; padding: 0 .25rem; border-radius: 3px; }
</style>
</head>
<body>
<h1>False-sharing forensics — {{.Benchmark}} <span class="badge">{{.Variant}} layout</span> <span class="badge">scale {{printf "%.2f" .Scale}}</span></h1>
<p class="muted">Generated {{.Generated}}. FSDetect summary below; per-line detail from an FSLite run with the flight recorder attached.</p>

<h2>Run summary (FSDetect)</h2>
<table>
<tr><th class="l">Cycles</th><th class="l">Detection overhead</th><th class="l">L1D miss</th><th class="l">Invalidations</th><th class="l">Metadata msgs</th><th class="l">Falsely shared lines</th><th class="l">Contended (true-sharing) lines</th></tr>
<tr><td>{{.Rep.Cycles}}</td><td>{{printf "%.2f" .Rep.OverheadPct}}%</td><td>{{printf "%.2f" (pct .Rep.L1MissFraction)}}%</td><td>{{.Rep.Invalidations}}</td><td>{{.Rep.MetadataMsgs}}</td><td>{{len .Rep.Lines}}</td><td>{{len .Rep.Contended}}</td></tr>
</table>

<h2>Detection accuracy vs. ground truth</h2>
<p class="muted">Each workload generator exports byte-range labels (private / true sharing / false sharing). A positive is a falsely-shared line actually contended during the run (&ge;2 cores, &ge;1 write). Rows with no positives are true-sharing controls where any detection would be a false positive.</p>
<table>
<tr><th class="l">Workload</th><th>Positives</th><th>TP</th><th>FP</th><th>FN</th><th>Mixed</th><th>Precision</th><th>Recall</th><th>Mean TTD (cycles)</th><th class="l">Verdict</th></tr>
{{range .Accuracy}}<tr><td class="l"><code>{{.Bench}}</code></td><td>{{.Positives}}</td><td>{{.TP}}</td><td>{{.FP}}</td><td>{{.FN}}</td><td>{{.Mixed}}</td>
{{if .Control}}<td>—</td><td>—</td><td>—</td><td class="l">{{if .Pass}}<span class="pass">control clean</span>{{else}}<span class="fail">false positives</span>{{end}}</td>
{{else}}<td>{{printf "%.2f" .Precision}}</td><td>{{printf "%.2f" .Recall}}</td><td>{{printf "%.0f" .MeanTTD}}</td><td class="l">{{if .Pass}}<span class="pass">pass</span>{{else}}<span class="fail">below 0.9</span>{{end}}</td>{{end}}</tr>
{{end}}</table>

<h2>Per-line flight recorder ({{.Benchmark}} under FSLite)</h2>
{{if .LinesDropped}}<p class="muted">Showing the {{len .Lines}} highest-ranked lines; {{.LinesDropped}} quieter lines omitted.</p>{{end}}
{{range .Lines}}
<h3><code>{{.Addr}}</code> <span class="badge">{{.Label}}</span>{{if .Detected}} <span class="badge">detected</span>{{end}}{{if .PrvEpisodes}} <span class="badge">privatized ×{{.PrvEpisodes}}</span>{{end}}</h3>
<p class="muted">{{.Reads}} reads, {{.Writes}} writes across {{.Cores}} cores.</p>
{{if .Heat}}
<table class="heat">
{{range .Heat}}<tr><th>core {{.Core}}</th>{{range .Cells}}<td style="{{.Style}}" title="{{.Title}}"></td>{{end}}</tr>
{{end}}</table>
<p class="muted">Byte×core access heatmap, bytes 0–{{$.BlockSize}} left to right, intensity normalized per line.</p>
{{end}}
{{if .PrvEpisodes}}
<table>
<tr><th class="l">Repair efficacy</th><th>Invalidations</th><th>Misses</th><th>Avg miss latency</th></tr>
<tr><td class="l">before privatization (cycle {{.PrvCycle}})</td><td>{{.InvBefore}}</td><td>{{.MissBefore}}</td><td>{{printf "%.1f" .AvgMissLatB}}</td></tr>
<tr><td class="l">after privatization</td><td>{{.InvAfter}}</td><td>{{.MissAfter}}</td><td>{{printf "%.1f" .AvgMissLatA}}</td></tr>
</table>
{{end}}
{{if .Timeline}}
<table>
<tr><th>Cycle</th><th class="l">Decision</th><th>Core</th><th class="l">Cause</th><th>Arg</th></tr>
{{range .Timeline}}<tr><td>{{.Cycle}}</td><td class="l">{{.Kind}}</td><td>{{.Core}}</td><td class="l">{{.Cause}}</td><td>{{.Arg}}</td></tr>
{{end}}</table>
{{if .TimelineDropped}}<p class="muted">{{.TimelineDropped}} of {{.TimelineTotalLen}} decisions elided from the middle of the timeline.</p>{{end}}
{{end}}
{{end}}

<h2>Campaign summary</h2>
<table>
<tr><th>Cells simulated</th><th>Memo hits</th><th>Errors</th><th>Sim time</th><th>Workers</th><th>Total cycles</th><th>Detections</th></tr>
<tr><td>{{.Campaign.Cells}}</td><td>{{.Campaign.MemoHits}}</td><td>{{.Campaign.Errors}}</td><td>{{.Campaign.TaskTime}}</td><td>{{.Campaign.Workers}}</td><td>{{.Campaign.Cycles}}</td><td>{{.Campaign.Detects}}</td></tr>
</table>
<p class="muted">Produced by <code>fsreport -html</code>. The file is self-contained; share it as-is.</p>
</body>
</html>
`))

// writeHTML renders the report to w.
func writeHTML(w io.Writer, d *htmlData) error {
	return htmlTmpl.Execute(w, d)
}
