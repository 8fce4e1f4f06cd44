package stats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestCanonicalCoversConstants parses stats.go and checks that every Ctr*
// constant is described by Canonical() — the docs counter table is generated
// from Canonical, so a constant missing here is a counter missing from the
// documentation.
func TestCanonicalCoversConstants(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "stats.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ctrNames []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for _, ident := range vs.Names {
			if strings.HasPrefix(ident.Name, "Ctr") {
				ctrNames = append(ctrNames, ident.Name)
			}
		}
		return true
	})
	if len(ctrNames) < 40 {
		t.Fatalf("parsed only %d Ctr* constants from stats.go — parser broken?", len(ctrNames))
	}

	// Map constant identifier -> runtime value via a generated lookup: the
	// constants are untyped strings, so evaluate them by name.
	described := map[string]bool{}
	for _, c := range Canonical() {
		described[c.Name] = true
		if c.Desc == "" {
			t.Errorf("counter %s has an empty description", c.Name)
		}
	}
	for _, ident := range ctrNames {
		val, ok := ctrValueByIdent[ident]
		if !ok {
			t.Errorf("constant %s is not registered in ctrValueByIdent (add it there and to Canonical)", ident)
			continue
		}
		if !described[val] {
			t.Errorf("constant %s (%q) is missing from Canonical()", ident, val)
		}
	}
	if len(ctrNames) != len(ctrValueByIdent) {
		t.Errorf("stats.go declares %d Ctr* constants but ctrValueByIdent maps %d", len(ctrNames), len(ctrValueByIdent))
	}
}

// ctrValueByIdent mirrors the Ctr* constant block; TestCanonicalCoversConstants
// fails if it drifts from stats.go.
var ctrValueByIdent = map[string]string{
	"CtrL1DAccesses":       CtrL1DAccesses,
	"CtrL1DHits":           CtrL1DHits,
	"CtrL1DMisses":         CtrL1DMisses,
	"CtrL1DFills":          CtrL1DFills,
	"CtrL1DEvicts":         CtrL1DEvicts,
	"CtrL1DWbDirty":        CtrL1DWbDirty,
	"CtrLLCAccesses":       CtrLLCAccesses,
	"CtrLLCHits":           CtrLLCHits,
	"CtrLLCMisses":         CtrLLCMisses,
	"CtrLLCFills":          CtrLLCFills,
	"CtrLLCEvicts":         CtrLLCEvicts,
	"CtrDirInval":          CtrDirInval,
	"CtrDirInterv":         CtrDirInterv,
	"CtrDirFetchReq":       CtrDirFetchReq,
	"CtrDirPendingQ":       CtrDirPendingQ,
	"CtrDirStrayAcks":      CtrDirStrayAcks,
	"CtrMemReads":          CtrMemReads,
	"CtrMemWrites":         CtrMemWrites,
	"CtrNetMessages":       CtrNetMessages,
	"CtrNetBytes":          CtrNetBytes,
	"CtrNetHops":           CtrNetHops,
	"CtrNetLinkWait":       CtrNetLinkWait,
	"CtrNetInflightPeak":   CtrNetInflightPeak,
	"CtrDirPendqPeak":      CtrDirPendqPeak,
	"CtrFSDetected":        CtrFSDetected,
	"CtrFSPrivatized":      CtrFSPrivatized,
	"CtrFSPrivAborted":     CtrFSPrivAborted,
	"CtrFSTerminations":    CtrFSTerminations,
	"CtrFSTermConflict":    CtrFSTermConflict,
	"CtrFSTermEviction":    CtrFSTermEviction,
	"CtrFSTermSAMEvict":    CtrFSTermSAMEvict,
	"CtrFSTermExternal":    CtrFSTermExternal,
	"CtrFSChkRequests":     CtrFSChkRequests,
	"CtrFSMetadataMsgs":    CtrFSMetadataMsgs,
	"CtrFSPhantomMsgs":     CtrFSPhantomMsgs,
	"CtrFSTrueSharing":     CtrFSTrueSharing,
	"CtrFSMetadataResets":  CtrFSMetadataResets,
	"CtrFSHysteresisBlock": CtrFSHysteresisBlock,
	"CtrFSContended":       CtrFSContended,
	"CtrFSPrvMerges":       CtrFSPrvMerges,
	"CtrFSPrvCycles":       CtrFSPrvCycles,
	"CtrSAMReplacements":   CtrSAMReplacements,
	"CtrSAMLookups":        CtrSAMLookups,
	"CtrPAMUpdates":        CtrPAMUpdates,
	"CtrOpsCommitted":      CtrOpsCommitted,
	"CtrLoadsCommitted":    CtrLoadsCommitted,
	"CtrStoresCommit":      CtrStoresCommit,
	"CtrAtomicsCommit":     CtrAtomicsCommit,
	"CtrReducesCommit":     CtrReducesCommit,
	"CtrComputeCycles":     CtrComputeCycles,
	"CtrStallCycles":       CtrStallCycles,
	"CtrCommitStalls":      CtrCommitStalls,
	"CtrCycles":            CtrCycles,
}
