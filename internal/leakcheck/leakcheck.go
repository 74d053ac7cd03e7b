// Package leakcheck verifies that a test run leaves no goroutines
// behind. It is an offline, standard-library reimplementation of the
// go.uber.org/goleak API surface this repo uses (the build environment
// has no network, so the real module cannot be fetched); swap the
// import if goleak ever becomes vendorable — VerifyTestMain and Find
// match, called without options.
//
// The fault-injection harnesses (faultnet, the replica and shard chaos
// tests) and the server's streaming/admission paths all spawn
// goroutines whose cleanup is part of the contract under test: a leaked
// catchup loop or stream worker is a bug the chaos suites would
// otherwise only catch as a flake. Wiring VerifyTestMain into those
// packages' TestMain makes the leak a hard failure.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// retries is how many times Find re-captures the stacks before it
// reports a leak.
const retries = 20

// defaultIgnoreTop are runtime/stdlib background goroutines that are
// never leaks.
var defaultIgnoreTop = []string{
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.gcBgMarkWorker",
	"runtime.timerproc",
	"runtime.ReadTrace",
	"os/signal.signal_recv",
	"os/signal.loop",
}

// VerifyTestMain runs the tests and then fails the process if any
// non-test goroutine is still alive. Use from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
func VerifyTestMain(m interface{ Run() int }) {
	code := m.Run()
	if code == 0 {
		if err := Find(); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Find returns an error describing all leaked goroutines, retrying with
// backoff until the stacks drain or the retry budget is spent. It forces
// no GC: a goroutine that only a collection would stop counts as leaked.
func Find() error {
	var leaked []goroutineStack
	delay := time.Millisecond
	for i := 0; i < retries; i++ {
		leaked = filter(stacks())
		if len(leaked) == 0 {
			return nil
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d leaked goroutine(s):", len(leaked))
	for _, g := range leaked {
		fmt.Fprintf(&b, "\n\ngoroutine %s [%s]:\n%s", g.id, g.state, strings.Join(g.frames, "\n"))
	}
	return fmt.Errorf("%s", b.String())
}

// goroutineStack is one parsed goroutine from runtime.Stack output.
type goroutineStack struct {
	id     string
	state  string
	funcs  []string // fully qualified function names, top first
	frames []string // raw lines for reporting
}

// stacks captures and parses all goroutine stacks except the caller's.
func stacks() []goroutineStack {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []goroutineStack
	for _, block := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(strings.TrimRight(block, "\n"), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "goroutine ") {
			continue
		}
		header := strings.TrimPrefix(lines[0], "goroutine ")
		var g goroutineStack
		if i := strings.IndexByte(header, ' '); i >= 0 {
			g.id = header[:i]
			g.state = strings.Trim(header[i+1:], "[]:")
		}
		g.frames = lines[1:]
		for _, l := range g.frames {
			if strings.HasPrefix(l, "\t") || l == "" {
				continue
			}
			// "pkg/path.Func(args)" or "created by pkg/path.Func in goroutine N"
			name := l
			if rest, ok := strings.CutPrefix(name, "created by "); ok {
				name = rest
				if i := strings.Index(name, " in goroutine"); i >= 0 {
					name = name[:i]
				}
			} else if i := strings.IndexByte(name, '('); i >= 0 {
				name = name[:i]
			}
			g.funcs = append(g.funcs, name)
		}
		out = append(out, g)
	}
	return out
}

// filter drops the current goroutine, test-framework goroutines and
// known runtime background work.
func filter(gs []goroutineStack) []goroutineStack {
	cur := currentID()
	var leaked []goroutineStack
	for _, g := range gs {
		if g.id == cur || len(g.funcs) == 0 {
			continue
		}
		if isIgnored(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

func isIgnored(g goroutineStack) bool {
	for _, fn := range g.funcs {
		// The test framework's own goroutines: testing.Main, tRunner,
		// (*M).Run, fuzz workers, plus anything parked inside them.
		if strings.HasPrefix(fn, "testing.") {
			return true
		}
	}
	return slices.Contains(defaultIgnoreTop, g.funcs[0])
}

// currentID extracts the calling goroutine's id from its own stack.
func currentID() string {
	buf := make([]byte, 64)
	n := runtime.Stack(buf, false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return ""
}
