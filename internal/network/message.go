// Package network defines the on-chip interconnect model and the coherence
// message wire format shared by the baseline MESI protocol and the
// FSDetect/FSLite extensions.
//
// The network is a fixed-latency crossbar. The delivery contract — the only
// ordering the protocol may assume — is per-(src,dst,class) FIFO: two
// messages on the same virtual channel arrive in send order, everything else
// may interleave arbitrarily. Large data messages pay a serialization
// penalty, so control messages routinely overtake data on the same (src,dst)
// pair, and the fault injector (faults.go) adds seeded jitter and burst
// delays on top; both stay within the contract, which PROTOCOL.md §"Network
// ordering contract" spells out together with the protocol races it makes
// reachable. Simulation remains fully deterministic in all cases. Traffic is
// accounted per message class so the experiment harness can reproduce the
// paper's interconnect-traffic results (§VIII-B).
package network

import (
	"fmt"

	"fscoherence/internal/memsys"
)

// NodeID identifies an endpoint on the interconnect. Cores' L1 controllers
// are numbered 0..C-1, directory/LLC slices C..C+S-1, and the memory
// controller is the final node.
type NodeID int

// Op enumerates message opcodes. The first group is the baseline directory
// MESI protocol (§VIII-A); the second group is added by FSDetect (§IV); the
// third by FSLite (§V).
type Op int

const (
	// ---- Baseline MESI ----

	OpGetS         Op = iota // read request (paper: Get)
	OpGetX                   // read-exclusive request
	OpUpgrade                // S -> M permission request
	OpFwdGetS                // intervention: forwarded read to owner
	OpFwdGetX                // intervention: forwarded read-exclusive to owner
	OpInv                    // invalidation to a sharer
	OpInvAck                 // invalidation acknowledgment (sharer -> requestor)
	OpData                   // data response granting S
	OpDataExcl               // data response granting E/M (AckCount pending acks)
	OpDataToDir              // owner's data copy sent to the directory on FwdGetS
	OpXferOwnerAck           // owner -> dir: ownership transferred on FwdGetX
	OpUpgradeAck             // dir -> requestor: upgrade granted (AckCount acks)
	OpUpgradeNack            // dir -> requestor: upgrade raced with inv, reissue GetX
	OpWB                     // writeback of a dirty block (data)
	OpWBAck                  // dir -> evictor: writeback accepted
	OpFwdNack                // owner -> dir: forwarded request missed (phantom data case handled via WB buffer; kept for completeness)

	// ---- FSDetect (metadata) ----

	OpRepMD     // REP_MD: PAM entry payload (read/write bit-vectors) to dir
	OpMDPhantom // dataless phantom metadata message (§V-D)

	// ---- FSLite (privatization) ----

	OpTRPrv     // TR_PRV: dir -> owner/sharers, privatization starting
	OpDataPrv   // Data_PRV: private copy granted, enter PRV
	OpGetCHK    // byte-level read permission check for a PRV block
	OpGetXCHK   // byte-level write permission check for a PRV block
	OpAckPrv    // Ack_PRV: CHK granted
	OpUpgAckPrv // UPG_Ack_PRV: upgrade granted with privatization (fig 12)
	OpInvPrv    // Inv_PRV: terminate privatized episode
	OpPrvWB     // Prv_WB: privatized copy written back for byte merge
	OpCtrlWB    // Ctrl_WB: dataless response to Inv_PRV when no copy held

	opCount
)

// NumOps is the number of defined opcodes; table-driven dispatch and the
// protocol spec (internal/coherence/spec) index arrays by Op.
const NumOps = int(opCount)

var opNames = [...]string{
	OpGetS: "GetS", OpGetX: "GetX", OpUpgrade: "Upgrade",
	OpFwdGetS: "Fwd_GetS", OpFwdGetX: "Fwd_GetX",
	OpInv: "Inv", OpInvAck: "InvAck",
	OpData: "Data", OpDataExcl: "DataExcl", OpDataToDir: "DataToDir",
	OpXferOwnerAck: "Xfer_Owner_ACK",
	OpUpgradeAck:   "UpgradeAck", OpUpgradeNack: "UpgradeNack",
	OpWB: "WB", OpWBAck: "WBAck", OpFwdNack: "FwdNack",
	OpRepMD: "REP_MD", OpMDPhantom: "MD_Phantom",
	OpTRPrv: "TR_PRV", OpDataPrv: "Data_PRV",
	OpGetCHK: "GetCHK", OpGetXCHK: "GetXCHK",
	OpAckPrv: "Ack_PRV", OpUpgAckPrv: "UPG_Ack_PRV",
	OpInvPrv: "Inv_PRV", OpPrvWB: "Prv_WB", OpCtrlWB: "Ctrl_WB",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Class groups opcodes for traffic accounting.
type Class int

const (
	ClassRequest  Class = iota // demand requests from L1s
	ClassControl               // invalidations, acks, forwards, privatization control
	ClassData                  // block-sized payload messages
	ClassMetadata              // FSDetect/FSLite metadata messages
	classCount
)

var classNames = [...]string{
	ClassRequest: "request", ClassControl: "control",
	ClassData: "data", ClassMetadata: "metadata",
}

func (c Class) String() string { return classNames[c] }

// ClassOf returns the accounting class for an opcode.
func ClassOf(op Op) Class {
	switch op {
	case OpGetS, OpGetX, OpUpgrade, OpGetCHK, OpGetXCHK:
		return ClassRequest
	case OpData, OpDataExcl, OpDataToDir, OpWB, OpDataPrv, OpPrvWB:
		return ClassData
	case OpRepMD, OpMDPhantom:
		return ClassMetadata
	default:
		return ClassControl
	}
}

// Message header and payload sizes in bytes for traffic accounting
// (header carries address/opcode/routing; REP_MD carries the two 8-byte
// bit-vectors, §IV).
const (
	HeaderBytes    = 8
	MDPayloadBytes = 16
)

// SizeOf returns the wire size of a message with opcode op and block size bs.
func SizeOf(op Op, blockSize int) int {
	switch ClassOf(op) {
	case ClassData:
		return HeaderBytes + blockSize
	case ClassMetadata:
		if op == OpMDPhantom {
			return HeaderBytes
		}
		return HeaderBytes + MDPayloadBytes
	default:
		return HeaderBytes
	}
}

// Msg is a coherence protocol message. A single struct carries the union of
// fields used by any opcode; unused fields are zero. This mirrors how flit
// payloads are modelled in architectural simulators and keeps handler code
// free of type switches.
type Msg struct {
	Op   Op
	Src  NodeID
	Dst  NodeID
	Addr memsys.Addr // block-aligned address

	// Requestor is the core that originated a transaction, preserved across
	// forwards so data responses can be routed directly (3-hop transactions).
	Requestor NodeID

	// Data carries a full block copy for data-class messages.
	Data []byte

	// AckCount is the number of InvAcks the requestor must collect before a
	// DataExcl/UpgradeAck grant completes.
	AckCount int

	// ReqMD is the REQ_MD header bit: the directory asks the receiver of an
	// intervention/invalidation to report its PAM entry (§IV).
	ReqMD bool

	// TouchedOff/TouchedLen describe the byte range touched by the memory
	// operation behind a request (start offset within the block plus 1, 2, 4
	// or 8 bytes, §V-A). A prefetch touches zero bytes.
	TouchedOff int
	TouchedLen int

	// MDRead/MDWrite are the PAM read/write bit-vectors for REP_MD messages
	// (bit i = byte/grain i of the block was read/written).
	MDRead  uint64
	MDWrite uint64

	// Dirty marks a writeback as carrying modified data, or a data grant as
	// granting M rather than E.
	Dirty bool

	// HasCopy, on REP_MD/MD_Phantom responses to TR_PRV, tells the directory
	// whether the sender retained a valid copy (and therefore joins the set
	// of PRV sharers).
	HasCopy bool

	// ToOwner marks a back-invalidation recall addressed to the block's
	// owner: the directory expects the data back (or a deferral until the
	// in-flight ownership grant completes), not just an acknowledgment.
	ToOwner bool

	// Base, on Prv_WB messages, carries the block's content as of the
	// core's entry into the PRV state; the directory merges reduction words
	// by adding (Data - Base) to the LLC copy (§VII reductions).
	Base []byte

	// Counted is a simulator-internal flag: the directory sets it when a
	// request retries after a transaction (eviction, privatization
	// termination) so the FC counter is not incremented twice.
	Counted bool

	// Seq is a network-assigned sequence number (deterministic tiebreak and
	// debugging aid).
	Seq uint64

	// retained marks a message a handler stored for later re-dispatch
	// (directory pending/retry queues, L1 deferral buffers, transaction held
	// requests): the dispatch loop's Release after handling becomes a no-op,
	// and the holder releases it after the eventual re-dispatch instead.
	// pooled guards against double release. Both are simulator-internal
	// lifecycle bits, invisible on the wire.
	retained bool
	pooled   bool
}

// Retain marks m as held beyond the current dispatch: Network.Release will
// not recycle it until Unretain is called. A message has exactly one holder
// at a time (one pending queue, one deferral buffer, or one transaction), so
// a boolean rather than a refcount suffices.
func (m *Msg) Retain() { m.retained = true }

// Unretain clears the hold before a held message is re-dispatched; the
// re-dispatcher releases it afterwards (unless a handler retained it again).
func (m *Msg) Unretain() { m.retained = false }

func (m *Msg) String() string {
	return fmt.Sprintf("%v %d->%d %v req=%d acks=%d md=%v touch=[%d,+%d)",
		m.Op, m.Src, m.Dst, m.Addr, m.Requestor, m.AckCount, m.ReqMD, m.TouchedOff, m.TouchedLen)
}
