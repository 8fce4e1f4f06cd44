package coherence

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fscoherence/internal/coherence/spec"
	"fscoherence/internal/stats"
)

// The old enum-walking coverage test (every exported state and opcode must be
// backticked somewhere in PROTOCOL.md) is gone: §§2–4 are now generated from
// internal/coherence/spec, whose own TestRenderMentionsEverything proves the
// rendered region names every opcode and every FSM state, and the test below
// pins the committed document to that render. Coverage holds by construction.

// generatedRegion returns the committed PROTOCOL.md text between the
// generated-region markers.
func generatedRegion(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "PROTOCOL.md"))
	if err != nil {
		t.Fatalf("PROTOCOL.md missing: %v", err)
	}
	doc := string(data)
	b := strings.Index(doc, spec.BeginMarker)
	e := strings.Index(doc, spec.EndMarker)
	if b < 0 || e < b {
		t.Fatalf("PROTOCOL.md lacks the generated-region markers")
	}
	return doc[b+len(spec.BeginMarker) : e]
}

// TestProtocolDocGeneratedRegionCurrent pins the committed PROTOCOL.md §§2–4
// to spec.Render(): the region between the generated-region markers must be
// exactly what cmd/fsspec would produce (run `make specdocs` after editing
// internal/coherence/spec).
func TestProtocolDocGeneratedRegionCurrent(t *testing.T) {
	region := generatedRegion(t)
	want := "\n\n" + spec.Render()
	if region != want {
		t.Errorf("PROTOCOL.md generated region drifted from internal/coherence/spec — run `make specdocs` (region %d bytes, want %d)", len(region), len(want))
	}
}

// counterRef matches a backticked name in a counter namespace.
var counterRef = regexp.MustCompile("`((?:cpu|dir|fs|l1d|llc|mem|net|pam|sam|sim)\\.[^`]*)`")

// TestProtocolDocCountersCanonical checks that every counter name the
// generated region cites is a canonical stats counter, so the document never
// points readers at a counter the simulator does not keep.
func TestProtocolDocCountersCanonical(t *testing.T) {
	canon := make(map[string]bool)
	for _, c := range stats.Canonical() {
		canon[c.Name] = true
	}
	refs := counterRef.FindAllStringSubmatch(generatedRegion(t), -1)
	if len(refs) == 0 {
		t.Fatal("the generated region cites no counters — pattern broken?")
	}
	for _, r := range refs {
		if !canon[r[1]] {
			t.Errorf("PROTOCOL.md cites `%s`, which is not a canonical counter", r[1])
		}
	}
}
