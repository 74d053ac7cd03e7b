// Command benchmark is the arithdb benchmark: four workloads served by an
// in-process internal/server on a loopback listener and driven through
// internal/client, every answer checked against an in-process oracle, plus
// a layer pass that times calls into each package from outside.
//
//	bash benchmark/run.sh                              every workload, both passes
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -compare A.jsonl B.jsonl     A/A or parent/change verdicts
//
// A single-workload run ends with one JSON line on standard output (the
// contract BENCHMARK.json is checked against); see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// specFile is read from the working directory: the benchmark always runs
// from the root of a checkout.
const specFile = "BENCHMARK.json"

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json. The benchmark prints exactly the metrics
// it lists and -compare applies the bounds it fixes.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	blob, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a result with the run it came from.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	result
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload and end with the result line (default: all, one process each)")
		seed    = fs.Int64("seed", 2020, "seed of the generated data, query pools and insert contents")
		seconds = fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of "+specFile+")")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with the layer pass off; 1: per-layer metrics and the span file")
		out     = fs.String("out", "", "append this run's record as one JSON line to the file")
		compare = fs.Bool("compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		err = compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
	case *name == "":
		err = runAll(stdout, stderr, sp, args)
	default:
		cfg := fullConfig(*seed, time.Duration(*seconds*float64(time.Second)), *trace != 0)
		err = runOne(stdout, sp, *name, cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints the table, then the
// result line. A run that cannot produce every metric BENCHMARK.json names
// for its pass is an error, not a shorter line.
func runOne(stdout io.Writer, sp *spec, name string, cfg config, outFile string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	out, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.endToEnd}
	want := sp.EndToEnd
	if cfg.trace {
		want, res.Metrics = sp.PerLayer, out.perLayer
	}
	if err := checkNames(res.Metrics, want); err != nil {
		return err
	}
	printTable(stdout, w.name, cfg, res, want)
	if cfg.trace {
		fmt.Fprintln(stdout, out.breakdown)
	}
	if outFile != "" {
		rec := record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.window.Seconds(), result: *res}
		if err := appendRecord(outFile, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checkNames requires the emitted metrics to be exactly the listed ones,
// units included.
func checkNames(got map[string]metric, want []specMetric) error {
	var bad []string
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			bad = append(bad, m.Name+" missing")
		case g.Unit != m.Unit:
			bad = append(bad, fmt.Sprintf("%s in %s, %s lists %s", m.Name, g.Unit, specFile, m.Unit))
		}
	}
	if len(got) != len(want) && len(bad) == 0 {
		bad = append(bad, fmt.Sprintf("%d metrics measured, %d listed", len(got), len(want)))
	}
	if len(bad) > 0 {
		return errors.New("metrics differ from " + specFile + ": " + strings.Join(bad, "; "))
	}
	return nil
}

func printTable(w io.Writer, name string, cfg config, res *result, order []specMetric) {
	pass := "end-to-end (layer pass off)"
	if cfg.trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  window %s  %s\n", name, cfg.seed, cfg.window, pass)
	for _, m := range order {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload of BENCHMARK.json, end-to-end pass then layer
// pass, each in a process of its own so that peak memory and set-up do not
// leak from one workload into the next.
func runAll(stdout, stderr io.Writer, sp *spec, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, append(append([]string{}, args...), "-workload", w.Name, "-trace", trace)...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %s): %v\n", w.Name, trace, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
