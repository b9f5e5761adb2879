package main

import (
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// repoRoot is the repository root as the compiler recorded it in file
// names, the prefix pprof prints for every repository frame.
func repoRoot() string {
	_, file, _, _ := runtime.Caller(0)
	return path.Dir(path.Dir(file))
}

// foldProfile folds a CPU profile into host seconds per layer with the
// toolchain's pprof (see foldTraces).
func foldProfile(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-lines", profile)
	cmd.Dir = filepath.Dir(profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+cmd.Dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return foldTraces(string(out), repoRoot())
}

// foldTraces charges every sample of `go tool pprof -traces -lines` output
// to one layer: that of the innermost frame whose source file lies under
// root/internal/<pkg>/ (layer <pkg>) or root/bench/ (layer "bench"). A
// sample with no such frame, such as a GC worker's, goes to "gc". Folding
// by file rather than by symbol keeps an inlined closure with the file
// that defines it, and charges a standard-library leaf (malloc, map
// access) to the repository frame that called it. It returns seconds per
// layer.
func foldTraces(out, root string) (map[string]float64, error) {
	layers := map[string]float64{}
	var weight time.Duration
	layer := ""
	flush := func() {
		if weight == 0 {
			return
		}
		if layer == "" {
			layer = "gc"
		}
		layers[layer] += weight.Seconds()
		weight, layer = 0, ""
	}
	inSample, first := false, false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample, first = true, true
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !inSample || len(fields) == 0 {
			continue
		}
		if first {
			// The sample's first line leads with its weight.
			w, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample weight in %q", line)
			}
			weight, first = w, false
		}
		if layer != "" {
			continue
		}
		file := fields[len(fields)-1]
		if rest, ok := strings.CutPrefix(file, root+"/internal/"); ok {
			if i := strings.IndexByte(rest, '/'); i > 0 {
				layer = rest[:i]
			}
		} else if strings.HasPrefix(file, root+"/bench/") {
			layer = "bench"
		}
	}
	flush()
	return layers, nil
}
