package core

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind: this
// is the package that owns the measurement pools, so a pool worker left
// blocked by a run that ended early is a bug here. The engines'
// persistent sample-pool helpers are not ignored — they exit from a GC
// cleanup once their engine is unreachable, which leakcheck's GC-retry
// loop waits for.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}
