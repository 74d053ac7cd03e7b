package shard_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind: the
// store starts none, and the engines it hands queries to must drain
// their pool workers.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}
