package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envRecord states where a number was measured, so two result files
// are only compared when they can be.
type envRecord struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	CPUModel       string `json:"cpu_model"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	Oversubscribed bool   `json:"oversubscribed"` // nproc < 2: ranks and clients were time-sliced
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type skippedRow struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

// result is one run of one workload: the contract line the driver reads
// plus everything a person needs to interpret it.
type result struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Scale    float64   `json:"scale"`
	Env      envRecord `json:"env"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	// Metrics holds the contract metrics: every end-to-end metric on an
	// untraced run, every per-layer metric on a traced run.
	Metrics map[string]metricValue `json:"metrics"`
	// Named repeats the end-to-end numbers under the row names the
	// defining issue used for this workload (stream_s, ingest_ms_p50 …)
	// and adds the rows that only one workload has (wire_mb …).
	Named map[string]metricValue `json:"named,omitempty"`
	// Samples states how many measurements stand behind the medians.
	Samples map[string]int `json:"samples"`
	// Counts are exact work counts that must repeat for a given seed.
	Counts map[string]int64 `json:"counts,omitempty"`
	// Series keeps the raw per-pass timings behind a median, so a noisy
	// run can be told from a slow one.
	Series map[string][]float64 `json:"series,omitempty"`
	// Notes carries free-form facts: percentile used, generator lateness.
	Notes     map[string]string `json:"notes,omitempty"`
	InputHash string            `json:"input_hash"`
	Checks    []checkResult     `json:"checks"`
	Skipped   []skippedRow      `json:"skipped,omitempty"`
	Claim     *string           `json:"claim"` // this benchmark claims no gain
}

func newResult(cfg config) *result {
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: cfg.scale,
		Env:     environment(),
		Metrics: map[string]metricValue{}, Named: map[string]metricValue{},
		Samples: map[string]int{}, Counts: map[string]int64{}, Notes: map[string]string{},
		Series: map[string][]float64{},
	}
}

// set records a contract metric; the unit comes from the spec tables,
// so a name that is not in the contract cannot be emitted.
func (r *result) set(name string, v float64) {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	s, ok := specOf(specs, name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the contract for this run mode")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	r.Metrics[name] = metricValue{v, s.Unit}
}

func (r *result) named(name, unit string, v float64) { r.Named[name] = metricValue{v, unit} }

// op counts attempted operations (stream steps, HTTP requests) and how
// many of them failed.
func (r *result) op(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// check records a correctness check; a failing check is a failed
// operation, not only a log line.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
	r.op(1, 0)
	if !ok {
		r.Failed++
	}
}

func (r *result) skip(name, reason string) {
	r.Skipped = append(r.Skipped, skippedRow{name, reason})
}

// finish verifies the run emitted exactly the contract's metrics.
func (r *result) finish() error {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("workload %s did not emit %s", r.Workload, s.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s measured %s as %v", r.Workload, s.Name, m.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", r.Workload)
	}
	r.Correct = r.Failed == 0
	return nil
}

// contractLine is the one JSON object the driver parses.
func (r *result) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (r *result) fileName() string {
	if r.Trace {
		return r.Workload + ".trace.json"
	}
	return r.Workload + ".json"
}

func (r *result) writeFile(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(b, '\n'), 0o644)
}

// appendRecord adds the result as one line to a JSONL history file,
// the input format of -compare.
func (r *result) appendRecord(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints every metric by name with its unit.
func (r *result) summary(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%v  correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Failed == 0, r.Attempted, r.Failed)
	printMetrics(w, "", r.Metrics)
	printMetrics(w, "named: ", r.Named)
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "   samples %-28s %d\n", k, r.Samples[k])
	}
	for _, k := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "   note    %-28s %s\n", k, r.Notes[k])
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(w, "   skipped %-28s %s\n", s.Name, s.Reason)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "   FAILED  %-28s %s\n", c.Name, c.Detail)
		}
	}
}

func printMetrics(w io.Writer, prefix string, m map[string]metricValue) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "   %s%-34s %14.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func environment() envRecord {
	env := envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	env.Oversubscribed = env.NProc < 2
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1000, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts a process's VmHWM at its current resident
// size, so the peak reported afterwards belongs to the measured window
// and not to set-up. Where the kernel refuses, the peak simply covers
// the whole process lifetime.
func resetPeakRSS(pid int) bool {
	return os.WriteFile("/proc/"+strconv.Itoa(pid)+"/clear_refs", []byte("5"), 0) == nil
}

// summarize prints the one-screen table run.sh ends with: one row per
// metric, one column per workload, read back from the result files in
// dir. The per-layer table follows when traced results are there too.
func summarize(w io.Writer, dir string) error {
	table := func(title, suffix string, specs []metricSpec) error {
		cols := map[string]*result{}
		for _, wl := range workloads {
			b, err := os.ReadFile(filepath.Join(dir, wl.Name+suffix))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return err
			}
			r := &result{}
			if err := json.Unmarshal(b, r); err != nil {
				return fmt.Errorf("%s%s: %w", wl.Name, suffix, err)
			}
			cols[wl.Name] = r
		}
		if len(cols) == 0 {
			return nil
		}
		fmt.Fprintf(w, "%s\n%-32s %-6s", title, "metric", "unit")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %12s", wl.Name)
		}
		fmt.Fprintln(w)
		row := func(name, unit string, cell func(*result) string) {
			fmt.Fprintf(w, "%-32s %-6s", name, unit)
			for _, wl := range workloads {
				c := "-"
				if r := cols[wl.Name]; r != nil {
					c = cell(r)
				}
				fmt.Fprintf(w, " %12s", c)
			}
			fmt.Fprintln(w)
		}
		for _, s := range specs {
			row(s.Name, s.Unit, func(r *result) string { return fmt.Sprintf("%.5g", r.Metrics[s.Name].Value) })
		}
		row("failed/attempted", "", func(r *result) string { return fmt.Sprintf("%d/%d", r.Failed, r.Attempted) })
		row("seed", "", func(r *result) string { return strconv.FormatUint(r.Seed, 10) })
		return nil
	}
	if err := table("end to end (untraced runs)", ".json", endToEnd); err != nil {
		return err
	}
	return table("per layer (traced runs)", ".trace.json", perLayer)
}
