package core

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind: this
// is the package that owns the measurement pools, so a pool worker left
// blocked by a run that ended early is a bug here. Every goroutine an
// engine starts is joined before the call that started it returns.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}
