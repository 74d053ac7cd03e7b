package arithdb_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind.
// The chaos suites (replica failover, sharded write routing under
// faults) spin up whole clusters; this proves every node, proxy, and
// client they start is fully torn down.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}
