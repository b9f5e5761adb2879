// Package nvme implements the subset of the NVM Express protocol the paper
// relies on: I/O commands, completions, status codes, namespaces, and a
// CIDTable that maps a queue's live command identifiers to host or device
// state. Both the OS block layer (OSDP) and the SMU's NVMe host controller
// (HWDP) drive devices with these types — the SMU issues "a 4KB read
// without a physical region page (PRP) list", i.e. a single-PRP read
// command.
//
// A queue is its ID. The device takes each command off the doorbell wire
// as it arrives and hands each completion to the host over the IRQ or
// snoop wire, so no submission or completion entry ever waits in a ring:
// the SQ write, doorbell, CQ write and CQ-head update are charged as
// timing constants by the hosts (smu.Timing, the kernel's doorbell and
// IRQ wires), not kept as ring state.
package nvme

import (
	"fmt"

	"hwdp/internal/trace"
)

// Opcode is an NVMe I/O command opcode.
type Opcode uint8

// NVM command set opcodes (NVMe 1.3, Fig. 346).
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02
)

// String returns the opcode's NVMe mnemonic.
//
//hwdp:coldpath display helper for traces, logs and test failures; never on the steady-state miss path
func (o Opcode) String() string {
	switch o {
	case OpFlush:
		return "flush"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	}
	return fmt.Sprintf("op%#x", uint8(o))
}

// BlockSize is the logical block size of all simulated namespaces. The
// paper's PTEs address 4 KiB pages; with 4 KiB logical blocks a page is
// exactly one block.
const BlockSize = 4096

// Command is a submission-queue entry. PRP1 carries the DMA target
// (the physical address of the destination frame); commands for one 4 KiB
// block never need PRP2 or a PRP list.
type Command struct {
	Opcode Opcode
	CID    uint16 // command identifier, echoed in the completion
	NSID   uint32 // namespace
	PRP1   uint64 // DMA address
	SLBA   uint64 // starting LBA
	NLB    uint16 // number of logical blocks, 0-based per spec
	Urgent bool   // storage-side urgent priority (Section V)

	// Trace is simulator-side metadata, not wire data: the trace context
	// of the page miss this command serves (nil when tracing is disabled
	// or the command is not miss I/O). It lets the device model attribute
	// queue-wait and media time.
	Trace *trace.Miss
}

// Blocks returns the transfer length in logical blocks.
func (c Command) Blocks() int { return int(c.NLB) + 1 }

// Namespace is a storage volume organized into logical blocks, typically
// managed by a single file system (paper, Section III-C footnote).
type Namespace struct {
	ID     uint32
	Blocks uint64 // capacity in logical blocks
}

// Status codes in completion entries, encoded as (SCT << 8) | SC like the
// spec's combined status field: generic command status (SCT 0), command
// specific status (SCT 1), and media/data integrity errors (SCT 2).
// StatusHostTimeout is not a wire status — the host block layer (and the
// SMU's completion-timeout logic) synthesizes it for commands whose
// completion never arrived, after issuing an abort.
const (
	StatusSuccess        uint16 = 0x0
	StatusInternalErr    uint16 = 0x6
	StatusInvalidNS      uint16 = 0xB
	StatusCmdInterrupted uint16 = 0x21 // transient, explicitly retryable (NVMe 1.4)
	StatusLBARange       uint16 = 0x80
	StatusWriteFault     uint16 = 0x280 // media error on program
	StatusUncorrectable  uint16 = 0x281 // unrecovered read error (UECC): data lost
	StatusHostTimeout    uint16 = 0xF01 // host-synthesized: completion timed out
)

// StatusString renders a status code for logs and error messages; unknown
// codes render as unknown(0xNN) rather than an empty string.
func StatusString(s uint16) string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusInternalErr:
		return "internal-error"
	case StatusInvalidNS:
		return "invalid-namespace"
	case StatusCmdInterrupted:
		return "command-interrupted"
	case StatusLBARange:
		return "lba-out-of-range"
	case StatusWriteFault:
		return "write-fault"
	case StatusUncorrectable:
		return "unrecovered-read"
	case StatusHostTimeout:
		return "host-timeout"
	}
	return fmt.Sprintf("unknown(%#x)", s)
}

// StatusRetryable reports whether a failed command is worth resubmitting:
// transient interruptions and host-observed timeouts are; media errors
// (UECC, write fault) and command/field errors are not.
func StatusRetryable(s uint16) bool {
	return s == StatusCmdInterrupted || s == StatusHostTimeout
}

// Completion is a completion-queue entry: the command it answers, the
// queue it was submitted on, and its status.
type Completion struct {
	CID    uint16
	SQID   uint16
	Status uint16
}

// OK reports whether the command succeeded.
func (cp Completion) OK() bool { return cp.Status == StatusSuccess }
