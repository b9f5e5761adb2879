package nvme

import (
	"testing"
	"testing/quick"
)

// TestCommandRoundTripProperty checks that a command's transfer length is
// its 0-based NLB plus one, for any field values.
func TestCommandRoundTripProperty(t *testing.T) {
	f := func(op uint8, cid uint16, nsid uint32, prp, slba uint64, nlb uint16, urg bool) bool {
		c := Command{
			Opcode: []Opcode{OpFlush, OpWrite, OpRead}[op%3],
			CID:    cid, NSID: nsid, PRP1: prp, SLBA: slba, NLB: nlb, Urgent: urg,
		}
		return c.Blocks() == int(nlb)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpFlush.String() != "flush" {
		t.Fatal("opcode strings")
	}
	if Opcode(0x99).String() != "op0x99" {
		t.Fatalf("unknown opcode: %s", Opcode(0x99))
	}
}
