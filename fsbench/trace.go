package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// maxUnattributed is the largest share of profile time the fold may leave
// unattributed before the traced run counts as incorrect.
const maxUnattributed = 0.10

// span is one timed call the traced run made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a cell span
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Path   string `json:"path"` // "public" or "decomposed"
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name, cell, path string, round, parent int, start, end time.Time) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Cell: cell, Path: path, Round: round,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
	})
	return id
}

// traceFiles are the files a traced run leaves behind, one set per workload
// and seed.
type traceFiles struct {
	dir, prefix string
}

func (t traceFiles) path(name string) string {
	return filepath.Join(t.dir, t.prefix+"-"+name)
}

// writeSpans writes the spans as JSON lines.
func (t traceFiles) writeSpans(l *spanLog) error {
	f, err := os.Create(t.path("spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v as indented JSON.
func (t traceFiles) writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", name, err)
	}
	return os.WriteFile(t.path(name), append(b, '\n'), 0o644)
}

// traced makes the traced run: an untraced half that also counts
// allocations, then a half with spans and the CPU profile on. It writes the
// spans, the profile, its per-layer fold and the tracing overhead.
func (b *bench) traced(budget time.Duration, tf traceFiles, host hostInfo, stdout io.Writer) (report, []string, error) {
	if err := os.MkdirAll(tf.dir, 0o755); err != nil {
		return nil, nil, err
	}
	untraced := &phase{memstats: true, setups: setupsPerRound}
	b.measure(untraced, budget/2, 1)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	traced := &phase{spans: &spanLog{origin: time.Now()}}
	b.measure(traced, budget/2, 1)
	pprof.StopCPUProfile()

	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	f := foldProfile(stacks)
	r := b.layerMetrics(untraced, traced, f)

	wall := func(ph *phase) float64 { return sumMedians(ph, func(s *samples) []float64 { return s.wall }) }
	overhead := map[string]any{
		"host":             host,
		"untraced_wall_s":  wall(untraced),
		"traced_wall_s":    wall(traced),
		"overhead_s":       wall(traced) - wall(untraced),
		"untraced_rounds":  untraced.rounds,
		"traced_rounds":    traced.rounds,
		"profile_samples":  f.Samples,
		"unattributed_pct": 100 * f.share(f.UnattributedNS),
	}
	for _, err := range []error{
		tf.writeSpans(traced.spans),
		os.WriteFile(tf.path("cpu.pprof"), prof.Bytes(), 0o644),
		tf.writeJSON("layers.json", map[string]any{"host": host, "fold": f}),
		tf.writeJSON("overhead.json", overhead),
	} {
		if err != nil {
			return nil, nil, err
		}
	}
	var problems []string
	if u := f.share(f.UnattributedNS); u >= maxUnattributed {
		problems = append(problems, fmt.Sprintf("%.1f%% of profile time is unattributed (limit %.0f%%)", 100*u, 100*maxUnattributed))
	}
	fmt.Fprintf(stdout, "traced %d rounds after %d untraced; tracing overhead %+.4f s; %d profile samples; files in %s\n",
		traced.rounds, untraced.rounds, wall(traced)-wall(untraced), f.Samples, tf.path("*"))
	return r, problems, nil
}
