package poolpair_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/poolpair"
)

func TestPoolpair(t *testing.T) {
	analyzertest.Run(t, "../testdata", "pooltest", poolpair.Analyzer)
}
