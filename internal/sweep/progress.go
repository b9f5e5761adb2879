package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// progress reports live sweep state: one line per completed unit with the
// running count, outcome, duration and an ETA extrapolated
// from the observed completion rate (which already folds in the worker
// parallelism). It writes to stderr-style side channels only — never the
// aggregate output stream — so progress noise can't break the
// byte-determinism of the results.
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	total int
	done  int
	start time.Time
}

// newProgress builds a reporter; a nil writer disables it.
func newProgress(w io.Writer, total int) *progress {
	return &progress{w: w, total: total, start: time.Now()}
}

// finished records one completed unit and emits its progress line.
func (p *progress) finished(r Result) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	line := fmt.Sprintf("sweep [%*d/%d] %-7s %-14s %8s",
		countWidth(p.total), p.done, p.total, r.Status, r.Name,
		r.Duration.Round(10*time.Millisecond))
	if p.done < p.total {
		elapsed := time.Since(p.start)
		eta := elapsed / time.Duration(p.done) * time.Duration(p.total-p.done)
		line += fmt.Sprintf("  eta ~%s", eta.Round(time.Second))
	}
	fmt.Fprintln(p.w, line)
}

// countWidth returns the print width of total for aligned counters.
func countWidth(total int) int {
	w := 1
	for total >= 10 {
		total /= 10
		w++
	}
	return w
}
