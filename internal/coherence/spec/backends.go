package spec

import "fscoherence/internal/stats"

// Backend documents one protocol backend selectable with -protocol.
type Backend struct {
	Name    string // coherence.Protocol String() name
	Flag    string // value accepted by the -protocol flag
	Repair  string // what happens when a line is flagged as falsely shared
	Summary string
}

// Backends returns the protocol-backend registry in Protocol enum order.
func Backends() []Backend {
	return []Backend{
		{
			Name: "Baseline", Flag: "baseline",
			Repair: "none",
			Summary: "Plain directory MESI (§VIII-A). No metadata, no repair; " +
				"falsely-shared lines ping-pong.",
		},
		{
			Name: "FSDetect", Flag: "fsdetect",
			Repair: "detect only",
			Summary: "Baseline plus PAM/SAM byte-access metadata and the FC " +
				"counter (§IV): flags falsely-shared lines (" + ctr(stats.CtrFSDetected) + ") " +
				"but never alters coherence actions.",
		},
		{
			Name: "FSLite", Flag: "fslite",
			Repair: "privatize",
			Summary: "The paper's repair (§V): a flagged line is privatized — " +
				"each core gets a writable `L1.PRV` copy, byte-grain CHK " +
				"requests arbitrate overlap, and termination byte-merges the " +
				"copies back.",
		},
	}
}
