package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords reads an -out file: one record a line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runSet is the end-to-end runs of one workload in one file.
type runSet struct {
	values map[string][]float64 // metric → one value a run, ascending
	runs   int
	failed int
}

func groupRuns(recs []record) map[string]*runSet {
	sets := map[string]*runSet{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		s := sets[r.Workload]
		if s == nil {
			s = &runSet{values: map[string][]float64{}}
			sets[r.Workload] = s
		}
		s.runs++
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	for _, s := range sets {
		for _, v := range s.values {
			sort.Float64s(v)
		}
	}
	return sets
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Fewer than two values have no
// spread.
func quartileSpread(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(median(sorted))
}

// compareFiles applies each end-to-end metric's bound to two sets of runs,
// A (the parent, or the first A/A set) and B, one verdict per metric and
// workload:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  it is not, but either set spreads wider than the bound
//	            (unless every run of B reads better than every run of A)
//	ok          otherwise
//
// Any failed operation makes the workload's "failures" row worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	recsA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	a, b := groupRuns(recsA), groupRuns(recsB)
	worse := 0
	fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range sp.Workloads {
		sa, sb := a[wl.Name], b[wl.Name]
		if sa == nil || sb == nil {
			fmt.Fprintf(w, "%-13s no end-to-end runs in both files\n", wl.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means B is worse.
			change := (mb - ma) / math.Abs(ma)
			allBetter := vb[len(vb)-1] < va[0]
			if m.Better == "higher" {
				change = -change
				allBetter = vb[0] > va[len(va)-1]
			}
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				worse++
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-15s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*spread, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if sa.failed+sb.failed > 0 {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-13s %-15s %12d %12d %35s\n", wl.Name, "failures", sa.failed, sb.failed, verdict)
		fmt.Fprintf(w, "%-13s %d and %d runs\n", wl.Name, sa.runs, sb.runs)
	}
	if worse > 0 {
		return fmt.Errorf("%d verdicts are worse", worse)
	}
	return nil
}
