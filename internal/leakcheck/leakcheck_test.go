package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func TestFindClean(t *testing.T) {
	if err := Find(); err != nil {
		t.Fatalf("clean process reported a leak: %v", err)
	}
}

func TestFindDetectsLeak(t *testing.T) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go leakyWorker(stop, done)
	// Give the goroutine a beat to park so its stack is attributable.
	time.Sleep(10 * time.Millisecond)

	leaked := filter(stacks())
	found := false
	for _, g := range leaked {
		for _, fn := range g.funcs {
			if strings.Contains(fn, "leakyWorker") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("leaked worker not reported; got %d goroutine(s)", len(leaked))
	}

	close(stop)
	<-done
	if err := Find(); err != nil {
		t.Fatalf("leak reported after worker exit: %v", err)
	}
}

// leakyWorker parks until released; its frame names the test's quarry.
func leakyWorker(stop, done chan struct{}) {
	<-stop
	close(done)
}
