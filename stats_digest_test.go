package fscoherence

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/stats_digest.golden")

// digestCell is one pinned simulation cell of the stats-digest golden.
type digestCell struct {
	bench string
	opt   Options
}

// digestCells lists the pinned cells: the 24 Fig 14a cells (every
// false-sharing app under Baseline, FSDetect and FSLite) on the skip policy,
// one 64-core mesh uGRID FSLite cell and one small interval-sampled cell.
func digestCells() []digestCell {
	var cells []digestCell
	for _, b := range FalseSharingBenchmarks() {
		for _, p := range []Protocol{Baseline, FSDetect, FSLite} {
			cells = append(cells, digestCell{b, Options{Protocol: p, Scale: engineEquivalenceScale}})
		}
	}
	return append(cells,
		digestCell{"uGRID", Options{Protocol: FSLite, Scale: 0.5, Cores: 64, Topology: "mesh"}},
		digestCell{"LR", Options{Protocol: FSLite, Scale: testScale, Sample: "1k:3k"}},
	)
}

// statsDigest is the SHA-256 of the canonical counter set, one "name=value"
// line per counter in sorted name order.
func statsDigest(res *Result) string {
	h := sha256.New()
	for _, n := range res.Stats.Names() {
		fmt.Fprintf(h, "%s=%d\n", n, res.Stats.Get(n))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStatsDigestGolden pins the simulated results of a fixed set of cells:
// cycle count plus a digest of every canonical counter. Any change to the
// protocol, the engines or the workloads that moves a single counter shows up
// here. Regenerate (only for an intended model change) with
// go test . -run TestStatsDigestGolden -update.
func TestStatsDigestGolden(t *testing.T) {
	r := NewRunner(0)
	cells := digestCells()
	futures := make([]*Future, len(cells))
	for i, c := range cells {
		futures[i] = r.Submit(c.bench, c.opt)
	}
	var b strings.Builder
	for i, c := range cells {
		res, err := futures[i].Result()
		if err != nil {
			t.Fatalf("%s %+v: %v", c.bench, c.opt, err)
		}
		fmt.Fprintf(&b, "%s/%v cores=%d topo=%q sample=%q cycles=%d stats=%s\n",
			c.bench, c.opt.Protocol, c.opt.Cores, c.opt.Topology, c.opt.Sample, res.Cycles, statsDigest(res))
	}
	got := b.String()

	golden := filepath.Join("testdata", "stats_digest.golden")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", golden, len(cells))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("cell %d diverges from golden:\n  got:  %s\n  want: %s", i, g, w)
		}
	}
}
