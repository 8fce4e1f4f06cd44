package spec

import (
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// Directory observed-state names: "absent" (no entry), the four stable
// DirState names, and the five transaction kinds of a busy entry.
const (
	dirAbsent  = "absent"
	dirI       = "I"
	dirS       = "S"
	dirM       = "M"
	dirPRV     = "PRV"
	dirFWD     = "FWD"
	dirMEM     = "MEM_FILL"
	dirPRVINIT = "PRV_INIT"
	dirPRVTERM = "PRV_TERM"
	dirEVICT   = "EVICT"
)

// Dir returns the directory/LLC-slice FSM over its observed states.
//
// The observed state of a block is "absent" when the slice holds no entry;
// the transaction kind when the entry is busy (a busy entry carries exactly
// one dirTxn); otherwise the entry's stable DirState name.
func Dir() *FSM {
	busy := "park in the entry's `pendq`; retried when the transaction completes"
	stray := "stray ack: counted in " + ctr(stats.CtrDirStrayAcks)
	reqRows := func(op network.Op, atI, atS, atM, atPRV string) []Transition {
		return []Transition{
			t(dirAbsent, op, "", "handleRequest", "allocate an entry (evicting an LLC victim: synchronous drop, `Dir.EVICT` recall or `Dir.PRV_TERM`), fetch from memory → `Dir.MEM_FILL`"),
			t(dirI, op, "", "handleRequest", atI),
			t(dirS, op, "", "handleRequest", atS),
			t(dirM, op, "", "handleRequest", atM),
			t(dirPRV, op, "", "handleRequest", atPRV),
			t(dirFWD, op, "", "handleRequest", busy),
			t(dirMEM, op, "", "handleRequest", busy),
			t(dirPRVINIT, op, "", "handleRequest", busy),
			t(dirPRVTERM, op, "", "handleRequest", busy),
			t(dirEVICT, op, "", "handleRequest", busy),
		}
	}
	f := &FSM{
		Name: "Dir",
		States: []StateDoc{
			{dirAbsent, "No directory entry in the slice; any request allocates one."},
			{dirI, "No L1 copies (the LLC may still hold data)."},
			{dirS, "Read-shared; `sharers` is a **superset** of actual S copies (silent S drops, §6.1)."},
			{dirM, "Owned: exactly one core (`owner`) holds `L1.E` or `L1.M`. The owner field is exact (§6.3)."},
			{dirPRV, "Privatized episode in progress (§V): `sharers` is the **exact** set of cores holding `L1.PRV` copies; byte-grain occupancy lives in the SAM (policy). The entry and its data slot are pinned for the episode."},
			{dirFWD, "An intervention (`Fwd_GetS`/`Fwd_GetX`) is outstanding at the owner."},
			{dirMEM, "A main-memory fetch is in flight (LLC miss, or non-inclusive data refetch with `refetch` preserving the entry's state)."},
			{dirPRVINIT, "Privatization initiation (§V-A): `TR_PRV` sent to all sharers / the owner; waiting for every `REP_MD`/`MD_Phantom` (joiners flagged by `HasCopy`), the owner's data if any, and PMMC = 0 (§V-D)."},
			{dirPRVTERM, "Privatization termination (§V-C): `Inv_PRV` sent to all PRV sharers; `mergeBuf` accumulates the byte-merge until every `Prv_WB`/`Ctrl_WB` is collected."},
			{dirEVICT, "An LLC victim recall: `Inv` to S sharers or `Inv(ToOwner)` to the owner; the line drops when all responses are in."},
		},
		Events: []network.Op{
			network.OpGetS, network.OpGetX, network.OpUpgrade,
			network.OpGetCHK, network.OpGetXCHK,
			network.OpWB, network.OpPrvWB, network.OpCtrlWB,
			network.OpInvAck, network.OpXferOwnerAck, network.OpDataToDir,
			network.OpRepMD, network.OpMDPhantom,
		},
		Transitions: cat2(
			reqRows(network.OpGetS,
				"`DataExcl` (MESI E grant — no other copies) → `Dir.M`",
				"`Data`; add sharer → `Dir.S`",
				"`Fwd_GetS` to the owner, pin the line → `Dir.FWD`",
				"byte check against the SAM: join the episode with `Data_PRV` on *NoConflict*; otherwise mark true sharing and terminate → `Dir.PRV` / `Dir.PRV_TERM`"),
			reqRows(network.OpGetX,
				"`DataExcl` → `Dir.M`",
				"`Inv` to the other sharers, `DataExcl(AckCount=n)` → `Dir.M`",
				"`Fwd_GetX` to the owner → `Dir.FWD`",
				"byte check: join with `Data_PRV` / terminate → `Dir.PRV` / `Dir.PRV_TERM`"),
			reqRows(network.OpUpgrade,
				"requestor cannot be a sharer here: `UpgradeNack` (its S copy raced with another writer, fig. 12 note); unchanged",
				"from a sharer: `Inv` to others, `UpgradeAck(AckCount=n)` → `Dir.M`; from a non-sharer: `UpgradeNack`",
				"requestor is not a sharer (the owner upgrades silently): `UpgradeNack`; unchanged",
				"from a PRV sharer: byte check → `UPG_Ack_PRV` / terminate → `Dir.PRV` / `Dir.PRV_TERM`; from a non-sharer: `UpgradeNack`"),
			reqRows(network.OpGetCHK,
				"stale CHK from a terminated episode: convert to `GetS` and serve as a demand",
				"stale CHK: convert to `GetS` and serve",
				"stale CHK: convert to `GetS` and serve (→ `Dir.FWD`)",
				"from a current PRV sharer: SAM byte check → `Ack_PRV` on *NoConflict*, else mark true sharing and terminate; from a non-sharer: convert to a joining demand"),
			reqRows(network.OpGetXCHK,
				"stale CHK: convert to `GetX` and serve as a demand",
				"stale CHK: convert to `GetX` and serve",
				"stale CHK: convert to `GetX` and serve (→ `Dir.FWD`)",
				"from a current PRV sharer: SAM byte check → `Ack_PRV` / terminate; from a non-sharer: convert to a joining demand"),
			[]Transition{
				// WB.
				t(dirM, network.OpWB, "from the current owner", "onWB", "absorb (update data if `Dirty`), `WBAck` → `Dir.I`"),
				t(dirFWD, network.OpWB, "from the old owner — its eviction raced the intervention", "onWB", "absorb, set `wbRace`, defer the `WBAck` to transaction completion; the intervention is served from the evictor's WB buffer (§6.4)"),
				t(dirEVICT, network.OpWB, "", "onWB", "recall response (or racing eviction): absorb, ack, count toward `expect`; drop the line when complete"),
				t(dirPRVINIT, network.OpWB, "the owner evicted before `TR_PRV` arrived", "onWB", "the writeback carries the awaited data (`dataSeen`)"),

				// Prv_WB.
				t(dirPRV, network.OpPrvWB, "quiescent PRV eviction (§V-D)", "onPrvWB", "merge the responder's last-written bytes (SAM `MergeMask`) plus reduction deltas, `WBAck`, prune the exact sharer set → `Dir.PRV`"),
				t(dirPRVTERM, network.OpPrvWB, "", "onPrvWB", "merge into `mergeBuf`, count toward the termination; commit the merge → `Dir.I` when all responses are in"),
				t(dirPRVINIT, network.OpPrvWB, "an early-evicting joiner", "onPrvWB", "merge and count; the initiation proceeds without the evictor"),

				// Ctrl_WB.
				t(dirPRVTERM, network.OpCtrlWB, "", "onCtrlWB", "dataless response: count toward the termination"),

				// InvAck — tolerated everywhere (superset sharer lists).
				t(dirAbsent, network.OpInvAck, "", "onInvAck", "stray ack from a silently-evicted sharer (§6.1): counted in "+ctr(stats.CtrDirStrayAcks)),
				t(dirI, network.OpInvAck, "", "onInvAck", stray),
				t(dirS, network.OpInvAck, "", "onInvAck", stray),
				t(dirM, network.OpInvAck, "", "onInvAck", stray),
				t(dirPRV, network.OpInvAck, "", "onInvAck", stray),
				t(dirFWD, network.OpInvAck, "", "onInvAck", stray),
				t(dirMEM, network.OpInvAck, "", "onInvAck", stray),
				t(dirPRVINIT, network.OpInvAck, "", "onInvAck", stray),
				t(dirPRVTERM, network.OpInvAck, "", "onInvAck", stray),
				t(dirEVICT, network.OpInvAck, "", "onInvAck", "count toward the recall's `expect`; drop the line (dirty data to memory) when complete"),

				// Xfer_Owner_ACK.
				t(dirFWD, network.OpXferOwnerAck, "", "onXferOwnerAck", "ownership transferred (`Fwd_GetX`): record the new owner → `Dir.M`; a deferred `WBAck` (wbRace) is sent now, the pendq drains"),

				// DataToDir.
				t(dirFWD, network.OpDataToDir, "", "onDataToDir", "owner's copy on `Fwd_GetS`: absorb, sharers = {old owner (unless `wbRace`), requestor} → `Dir.S`"),
				t(dirPRVINIT, network.OpDataToDir, "", "onDataToDir", "the owner's data for the initiation (`dataSeen`); the initiation proceeds"),

				// REP_MD / MD_Phantom — policy feed, tolerated everywhere.
				t(dirAbsent, network.OpRepMD, "", "onRepMD", "feed the PAM bit-vectors into the policy (SAM); the entry is gone, nothing else to do"),
				t(dirI, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirS, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirM, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirPRV, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirFWD, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirMEM, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirPRVINIT, network.OpRepMD, "", "onRepMD", "feed the policy; counts toward the expected responses (`HasCopy` joins the PRV sharer set)"),
				t(dirPRVTERM, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirEVICT, network.OpRepMD, "", "onRepMD", "feed the policy"),
				t(dirAbsent, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC (§V-D); the entry is gone, nothing else to do"),
				t(dirI, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
				t(dirS, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
				t(dirM, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
				t(dirPRV, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
				t(dirFWD, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
				t(dirMEM, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
				t(dirPRVINIT, network.OpMDPhantom, "", "onMDPhantom", "counts toward the expected responses (`HasCopy` joins the PRV sharer set)"),
				t(dirPRVTERM, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
				t(dirEVICT, network.OpMDPhantom, "", "onMDPhantom", "decrement PMMC"),
			},
		),
		Impossible: cat(
			imps(network.OpWB, "inclusion guarantees an entry exists for any L1-cached block", dirAbsent),
			imps(network.OpWB, "only the E/M owner writes back, and `Dir.I` has no owner", dirI),
			imps(network.OpWB, "S copies drop silently (§6.1); only E/M copies write back", dirS),
			imps(network.OpWB, "PRV copies return via `Prv_WB`, never plain `WB`", dirPRV),
			imps(network.OpWB, "a fill transaction holds the entry only while no L1 copy exists (S copies drop silently)", dirMEM),
			imps(network.OpWB, "a termination collects `Prv_WB`/`Ctrl_WB`, never plain `WB`", dirPRVTERM),
			imps(network.OpPrvWB, "only PRV copies (episodes or their termination/initiation) produce `Prv_WB`", dirAbsent, dirI, dirS, dirM, dirFWD, dirMEM, dirEVICT),
			imps(network.OpCtrlWB, "`Ctrl_WB` only answers `Inv_PRV`, which only an open termination sends", dirAbsent, dirI, dirS, dirM, dirPRV, dirFWD, dirMEM, dirPRVINIT, dirEVICT),
			imps(network.OpXferOwnerAck, "only answers an open `Fwd_GetX` intervention", dirAbsent, dirI, dirS, dirM, dirPRV, dirMEM, dirPRVINIT, dirPRVTERM, dirEVICT),
			imps(network.OpDataToDir, "the owner's copy only answers an open `Fwd_GetS` intervention or privatization initiation", dirAbsent, dirI, dirS, dirM, dirPRV, dirMEM, dirPRVTERM, dirEVICT),
		),
	}
	return f
}

// cat2 concatenates transition groups.
func cat2(groups ...[]Transition) []Transition {
	var out []Transition
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
