package hwdp

// Golden determinism pin. The discrete-event engine is the substrate under
// every figure and trace in the repo; any change to it (or to the per-miss
// path it drives) must keep metrics, figure text and trace JSON
// byte-identical for a fixed seed. This test renders a fixed-seed workload
// across schemes — run results, Chrome trace JSON, breakdown report and a
// figure — and compares the SHA-256 of the whole byte stream against a
// pinned constant captured from the seed implementation.
//
// If this test fails after an intentional semantic change to the timing
// model, re-pin the constant and say so in the commit message. If it fails
// after a "pure refactor" of the engine or the miss path, the refactor
// changed event ordering and is not pure.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"hwdp/internal/figures"
)

// goldenStream renders every determinism-sensitive output of a fixed-seed
// run into one byte stream.
func goldenStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range []Scheme{OSDP, SWOnly, HWDP} {
		cfg := det(s)
		cfg.Trace = true
		sys := New(cfg)
		res, err := sys.RunFIO(2, 250, 4096)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%v %+v\n", s, res)
		if err := sys.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(sys.BreakdownReport())
	}
	fig, err := figures.Fig3(figures.Quick())
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(fig.String())
	return buf.Bytes()
}

// goldenPin is the SHA-256 of goldenStream on the seed implementation
// (amd64). Floating-point rendering is identical on every platform Go
// guarantees no FMA contraction for separate statements, but the figure
// pipelines do arithmetic in single expressions where contraction is
// allowed, so the cross-run check below is unconditional and the pinned
// comparison is restricted to amd64.
const goldenPin = "cca3f1195c8c3155ebcb631a89a96b0adad71be74234a2360e053434d5ace1c0"

func TestGoldenOutputPinned(t *testing.T) {
	b1 := goldenStream(t)
	b2 := goldenStream(t)
	if !bytes.Equal(b1, b2) {
		t.Fatal("fixed-seed output diverged across two in-process runs")
	}
	sum := sha256.Sum256(b1)
	got := hex.EncodeToString(sum[:])
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digest is amd64-only; got %s on %s", got, runtime.GOARCH)
	}
	if got != goldenPin {
		t.Fatalf("golden output digest changed:\n  got  %s\n  want %s\n"+
			"(an engine/miss-path refactor must keep fixed-seed output byte-identical)", got, goldenPin)
	}
}

// multiQuantumStream renders the outputs whose user slices span several
// 8,192-instruction CPU quanta: Fig. 16, where an FIO thread shares a
// core with a compute co-runner whose state changes mid-slice, and a
// fixed-seed YCSB-A run (40,000 instructions per op, five quanta) on
// eight threads, whose SMT siblings on the last cores run the kernel
// daemons. goldenStream runs only one-quantum FIO ops, so this pin is the
// one that sees how a slice is split into quanta.
func multiQuantumStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fig, err := figures.Fig16(figures.Quick())
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(fig.String())
	sys := New(Config{Scheme: HWDP, MemoryMB: 16, Cores: 8, Deterministic: true, Seed: 7})
	res, err := sys.RunYCSB('A', 8, 150, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "%+v\n", res)
	return buf.Bytes()
}

// multiQuantumPin is the SHA-256 of multiQuantumStream (amd64, as
// goldenPin).
const multiQuantumPin = "c059dd4c4a31ccceef2a99329f7196aa6c4fbc637f8500bcc4a525d86ad95525"

func TestMultiQuantumOutputPinned(t *testing.T) {
	sum := sha256.Sum256(multiQuantumStream(t))
	got := hex.EncodeToString(sum[:])
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digest is amd64-only; got %s on %s", got, runtime.GOARCH)
	}
	if got != multiQuantumPin {
		t.Fatalf("multi-quantum output digest changed:\n  got  %s\n  want %s\n"+
			"(a change to how user slices are scheduled must keep this output byte-identical)", got, multiQuantumPin)
	}
}
