package main

// The benchmark's contract in one place: workload names, the metrics
// every workload emits, their units, directions and regression bounds.
// BENCHMARK.json at the repository root mirrors these tables; a test
// fails when the two drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

const (
	wlBulk       = "bulk_nnz"
	wlDistInproc = "dist_inproc"
	wlDistTCP    = "dist_tcp"
	wlServeWrite = "serve_write"
	wlServeRead  = "serve_read"
)

var workloads = []workloadSpec{
	{wlBulk, "nnz-dominated stream steps (Netflix-like, Workers 1): complement, kernel build and MTTKRP do the work; a kernel or layout change must show here, a communication change must not"},
	{wlDistInproc, "dims-dominated steps on 2 in-process ranks (Book-like, MTP): planning, Gram, row solves, all-reduce and row exchange dominate, MTTKRP is small; the inverse of bulk_nnz"},
	{wlDistTCP, "same inputs as dist_inproc over two loopback TCP nodes running the cmd/worker step loop; the difference to dist_inproc isolates transport and wire codec"},
	{wlServeWrite, "write-heavy serving: closed-loop 16-event /ingest batches against worker -serve-http with a trickle of reads; publish, JSON and sweep stalls dominate, top-K work must not move it"},
	{wlServeRead, "read-heavy serving: closed-loop /topk and /predict with a paced writer swapping snapshots underneath; score-and-sort and snapshot churn dominate, write-path work must not move it"},
}

// End-to-end metrics. Every workload emits every one of them; what the
// workload's "operation" is — a pass of five stream steps, an /ingest
// round trip, a /topk round trip — is fixed per workload and stated in
// README.md next to the name the issue gave that row.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"fit", "ratio", "higher", 0.12},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// Per-layer metrics, traced run only. Layer = package name. No bounds.
var perLayer = []metricSpec{
	{Name: "tensor.complement_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.build_ms", Unit: "ms", Better: "lower"},
	{Name: "layout.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "mttkrp.kernel_build_ms", Unit: "ms", Better: "lower"},
	{Name: "mttkrp.coo_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "mttkrp.compiled_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "mttkrp.share_pct", Unit: "%", Better: "lower"},
	{Name: "par.speedup_t2", Unit: "x", Better: "higher"},
	{Name: "mat.gram_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mat.solve_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mat.dense_share_pct", Unit: "%", Better: "lower"},
	{Name: "partition.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.imbalance_cv", Unit: "ratio", Better: "lower"},
	{Name: "dplan.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dplan.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "dplan.exchange_tcp_ms", Unit: "ms", Better: "lower"},
	{Name: "dplan.exchange_kb", Unit: "kB", Better: "lower"},
	{Name: "cluster.allreduce_local_us", Unit: "us", Better: "lower"},
	{Name: "cluster.allreduce_tcp_us", Unit: "us", Better: "lower"},
	{Name: "cluster.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_step", Unit: "count", Better: "lower"},
	{Name: "cluster.join_ms", Unit: "ms", Better: "lower"},
	{Name: "core.job_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.serial_pct", Unit: "%", Better: "lower"},
	{Name: "core.step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.speedup_w2", Unit: "x", Better: "higher"},
	{Name: "dtd.step_ms", Unit: "ms", Better: "lower"},
	{Name: "dtd.init_ms", Unit: "ms", Better: "lower"},
	{Name: "dtd.state_write_ms", Unit: "ms", Better: "lower"},
	{Name: "dtd.state_read_ms", Unit: "ms", Better: "lower"},
	{Name: "dtd.state_mb", Unit: "MB", Better: "lower"},
	{Name: "dtd.updater_apply_us_per_event", Unit: "us", Better: "lower"},
	{Name: "dtd.updater_rows_per_event", Unit: "count", Better: "lower"},
	{Name: "stream.ingest_events_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stream.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_grew_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.topk_small_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.topk_ms_per_krow", Unit: "ms", Better: "lower"},
	{Name: "serve.read_under_sweep_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_mb_per_pass", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "step.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func specOf(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
