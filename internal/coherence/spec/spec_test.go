package spec

import (
	"strings"
	"testing"

	"fscoherence/internal/network"
)

// TestFSMsComplete is the spec-table completeness gate: every state×event
// pair of both FSMs carries a transition or an explicit impossible marker,
// and all structural invariants of FSM.Check hold.
func TestFSMsComplete(t *testing.T) {
	for _, f := range []*FSM{L1(), Dir()} {
		if err := f.Check(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

// TestMessagesCoverEnum pins the opcode table to the network enum: one row
// per opcode, in enum order, nothing missing, nothing extra.
func TestMessagesCoverEnum(t *testing.T) {
	msgs := Messages()
	if len(msgs) != network.NumOps {
		t.Fatalf("Messages() has %d rows, network defines %d opcodes", len(msgs), network.NumOps)
	}
	for i, m := range msgs {
		if int(m.Op) != i {
			t.Errorf("row %d documents %v (enum order violated)", i, m.Op)
		}
		if m.Direction == "" || m.Meaning == "" {
			t.Errorf("%v: empty direction or meaning", m.Op)
		}
	}
}

// TestEventsArePartitioned checks that every opcode is handled somewhere:
// L1-bound opcodes in the L1 FSM, dir-bound opcodes in the Dir FSM, and the
// two never claim the same opcode. FwdNack is the single defined-but-unsent
// opcode.
func TestEventsArePartitioned(t *testing.T) {
	l1 := make(map[network.Op]bool)
	for _, e := range L1().Events {
		l1[e] = true
	}
	dir := make(map[network.Op]bool)
	for _, e := range Dir().Events {
		dir[e] = true
	}
	for op := network.Op(0); int(op) < network.NumOps; op++ {
		switch {
		case l1[op] && dir[op]:
			// InvAck routes to whoever Requestor names: the granted core, or
			// the slice itself during an LLC recall. Both FSMs handle it.
			if op != network.OpInvAck {
				t.Errorf("%v claimed by both FSMs", op)
			}
		case op == network.OpFwdNack:
			if l1[op] || dir[op] {
				t.Errorf("FwdNack is never sent but an FSM lists it")
			}
		case !l1[op] && !dir[op]:
			t.Errorf("%v handled by neither FSM", op)
		}
	}
}

// TestBackends checks the backend registry: unique names and flags, and the
// three protocol enum values all represented.
func TestBackends(t *testing.T) {
	bs := Backends()
	if len(bs) != 3 {
		t.Fatalf("want 3 backends, got %d", len(bs))
	}
	seen := make(map[string]bool)
	for _, p := range bs {
		if p.Name == "" || p.Flag == "" || p.Repair == "" || p.Summary == "" {
			t.Errorf("backend %+v has empty fields", p)
		}
		if seen[p.Flag] {
			t.Errorf("duplicate flag %q", p.Flag)
		}
		seen[p.Flag] = true
	}
}

// TestRenderMentionsEverything: the generated doc names every opcode and
// every observed state of both FSMs (the PROTOCOL.md enum-walking test
// depends on this).
func TestRenderMentionsEverything(t *testing.T) {
	doc := Render()
	for op := network.Op(0); int(op) < network.NumOps; op++ {
		if !strings.Contains(doc, "`"+op.String()+"`") {
			t.Errorf("rendered doc does not name opcode %v", op)
		}
	}
	for _, f := range []*FSM{L1(), Dir()} {
		for _, s := range f.States {
			if s.Name == "absent" {
				continue
			}
			if !strings.Contains(doc, "`"+f.Name+"."+s.Name+"`") {
				t.Errorf("rendered doc does not name state %s.%s", f.Name, s.Name)
			}
		}
	}
	for _, h := range []string{"## 2. Message table", "## 3. L1 controller FSM", "## 4. Directory / LLC slice FSM"} {
		if !strings.Contains(doc, h) {
			t.Errorf("rendered doc missing heading %q", h)
		}
	}
}
