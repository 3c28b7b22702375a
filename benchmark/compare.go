package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare a.jsonl b.jsonl judges side B against side A. Each file
// holds one result per line (what -record appends); a side's runs of
// the same workload form its sample. Every end-to-end (metric,
// workload) row is judged against the bound recorded for the metric:
//
//	better / worse   the medians differ by more than the bound
//	same             they do not
//	unresolved       a side's own runs spread wider than the bound, so
//	                 the row cannot be told from noise — unless every run
//	                 of B beats every run of A (or the reverse)
//
// Exact work counts and input hashes must be identical when the seeds
// are. Any "worse" row, a count mismatch or a failed operation makes
// the exit status non-zero.

func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges one row. Positive change means B is worse.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse := sign * (mb - ma) / math.Abs(ma)
	beats := func(x, y []float64) bool { // every run of x reads better than every run of y
		for _, vx := range x {
			for _, vy := range y {
				if sign*(vx-vy) >= 0 {
					return false
				}
			}
		}
		return true
	}
	if math.Max(iqrShare(a), iqrShare(b)) > bound {
		switch {
		case beats(b, a):
			return "better", worse
		case beats(a, b):
			return "worse", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > bound:
		return "worse", worse
	case worse < -bound:
		return "better", worse
	}
	return "same", worse
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no results", pathA)
	}
	b, errB := readRecords(pathB)
	if errB == nil && len(b) == 0 {
		errB = fmt.Errorf("%s holds no results", pathB)
	}
	if err != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", err, errB)
		return 2
	}
	type side struct {
		values map[string][]float64
		counts map[string]int64
		seeds  map[uint64]bool
		failed int
	}
	group := func(rs []result) map[string]*side {
		out := map[string]*side{}
		for _, r := range rs {
			if r.Trace {
				continue // per-layer numbers carry no bound
			}
			s := out[r.Workload]
			if s == nil {
				s = &side{values: map[string][]float64{}, counts: map[string]int64{}, seeds: map[uint64]bool{}}
				out[r.Workload] = s
			}
			for name, m := range r.Metrics {
				s.values[name] = append(s.values[name], m.Value)
			}
			for name, c := range r.Counts {
				s.counts[name] = c
			}
			s.counts["input_hash:"+r.InputHash] = 1
			s.seeds[r.Seed] = true
			s.failed += r.Failed
		}
		return out
	}
	ga, gb := group(a), group(b)
	bad := 0
	names := sortedKeys(ga)
	fmt.Fprintf(w, "%-12s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range names {
		sa, sb := ga[wl], gb[wl]
		if sb == nil {
			fmt.Fprintf(w, "%-12s missing from %s\n", wl, pathB)
			bad++
			continue
		}
		for _, spec := range endToEnd {
			va, vb := sa.values[spec.Name], sb.values[spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-12s missing on one side\n", wl, spec.Name)
				bad++
				continue
			}
			v, change := verdict(va, vb, spec.Better, spec.Bound)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-12s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (n=%d/%d)\n",
				wl, spec.Name, median(va), median(vb), 100*change, 100*spec.Bound, v, len(va), len(vb))
		}
		if sb.failed > sa.failed {
			fmt.Fprintf(w, "%-12s failed operations rose from %d to %d\n", wl, sa.failed, sb.failed)
			bad++
		}
		// Counts repeat per seed, so they compare only between sides that
		// each ran one seed, the same one.
		oneSeed := len(sa.seeds) == 1 && len(sb.seeds) == 1
		for s := range sa.seeds {
			oneSeed = oneSeed && sb.seeds[s]
		}
		if !oneSeed {
			continue
		}
		for _, name := range sortedKeys(sa.counts) {
			if sa.counts[name] != sb.counts[name] {
				fmt.Fprintf(w, "%-12s exact count %s differs: %d vs %d\n", wl, name, sa.counts[name], sb.counts[name])
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d row(s) worse, missing or mismatched\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no row is worse")
	return 0
}
