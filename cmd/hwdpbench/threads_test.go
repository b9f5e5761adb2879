package main

import (
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

func TestParseThreads(t *testing.T) {
	got, err := parseThreads(" 1,4 ,8", 8)
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 8}) {
		t.Fatalf("parseThreads(1,4,8) = %v, %v", got, err)
	}
	if got, err := parseThreads("", 8); got != nil || err != nil {
		t.Fatalf("parseThreads(\"\") = %v, %v; want the default sweep", got, err)
	}
	// Workload thread i takes hardware thread 2i, so a count above the
	// core count names a thread the machine does not have; 0 and
	// negative counts measure nothing.
	for _, bad := range []string{"16", "9", "0", "-2", "4,x", "4,,8"} {
		if got, err := parseThreads(bad, 8); err == nil {
			t.Errorf("parseThreads(%q) = %v, want an error", bad, got)
		}
	}
}

// TestThreadsFlagRejected runs the command with an out-of-range -threads
// and checks that it exits 2 with a message before any unit runs.
func TestThreadsFlagRejected(t *testing.T) {
	if os.Getenv("HWDPBENCH_MAIN") == "1" {
		os.Args = []string{"hwdpbench", "-fig", "13", "-threads", os.Getenv("HWDPBENCH_THREADS")}
		main()
		return
	}
	for _, val := range []string{"16", "0", "-2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestThreadsFlagRejected$")
		cmd.Env = append(os.Environ(), "HWDPBENCH_MAIN=1", "HWDPBENCH_THREADS="+val)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("-threads %s: err = %v, want exit status 2; output:\n%s", val, err, out)
		}
		if !strings.Contains(string(out), "-threads") {
			t.Fatalf("-threads %s: message does not name the flag:\n%s", val, out)
		}
	}
}
