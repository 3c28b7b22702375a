package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dismastd"
	"dismastd/internal/dtd"
)

// Per-layer metrics of the event path and the serving front end. Every
// workload ends with a model; these probes checkpoint it, feed one
// seeded batch sequence to the row updater, to an in-process Stream and
// to a worker resumed from the same checkpoint, and so split an
// /ingest round trip into updater, stream and HTTP+JSON+publish.

func (lm *layerMetrics) eventAndServe(final *dtd.State, seed uint64) error {
	res, cfg := lm.res, lm.cfg
	var ckpt bytes.Buffer
	if err := dtd.WriteStateSteps(&ckpt, final, 1); err != nil {
		return err
	}
	gen := newEventGen(final.Dims, seed^0x5e47e)
	batches := make([][]dismastd.Event, lm.reps(512))
	var pool []dismastd.Event
	for i := range batches {
		batches[i] = gen.batch(16, i%64 == 0)
		pool = append(pool, batches[i]...)
	}
	n := len(final.Dims)

	// dtd.Updater: the bounded-work row solves alone, re-anchored at the
	// cadence the stream's sweeps would re-anchor it.
	st, _, err := dtd.ReadStateSteps(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		return err
	}
	up, err := dtd.NewUpdater(st, dtd.Options{Rank: rank, MaxIters: iters, Mu: mu, Seed: 1, Threads: 2})
	if err != nil {
		return err
	}
	var applyNS, rows, events int64
	coords := make([]int32, 0, 16*n)
	vals := make([]float64, 0, 16)
	grow := append([]int(nil), st.Dims...)
	id := lm.rec.begin("probe dtd.Updater.Apply")
	for _, batch := range batches {
		coords, vals = coords[:0], vals[:0]
		grew := false
		for _, ev := range batch {
			for m, c := range ev.Coords {
				coords = append(coords, int32(c))
				if c+1 > grow[m] {
					grow[m], grew = c+1, true
				}
			}
			vals = append(vals, ev.Value)
		}
		if grew {
			if err := up.Grow(grow); err != nil {
				return err
			}
		}
		sid := lm.rec.begin("dtd.Updater.Apply")
		t0 := time.Now()
		up.Apply(coords, vals)
		applyNS += time.Since(t0).Nanoseconds()
		lm.rec.end(sid)
		events += int64(len(batch))
		if up.Pending() >= cfg.sweepEvery() {
			rows += up.RowsTouched()
			up.Reset(st)
		}
	}
	lm.rec.end(id)
	rows += up.RowsTouched()
	res.set("dtd.updater_apply_us_per_event", float64(applyNS)/1e3/float64(events))
	res.set("dtd.updater_rows_per_event", float64(rows)/float64(events))

	// dismastd.Stream: the same batches through the public event path.
	s, err := dismastd.ResumeStream(bytes.NewReader(ckpt.Bytes()), cfg.replicaOptions())
	if err != nil {
		return err
	}
	var ingestMS, flushMS []float64
	id = lm.rec.begin("probe dismastd.Stream.IngestEvents")
	for _, batch := range batches {
		sid := lm.rec.begin("dismastd.Stream.IngestEvents")
		t0 := time.Now()
		rep, err := s.IngestEvents(batch)
		d := ms(time.Since(t0))
		lm.rec.end(sid)
		if err != nil {
			return err
		}
		if rep.Sweep != nil {
			flushMS = append(flushMS, ms(rep.Sweep.Wall))
		} else {
			ingestMS = append(ingestMS, d)
		}
	}
	if s.Pending() > 0 {
		sid := lm.rec.begin("dismastd.Stream.Flush")
		t0 := time.Now()
		if _, err := s.Flush(); err != nil {
			return err
		}
		flushMS = append(flushMS, ms(time.Since(t0)))
		lm.rec.end(sid)
	}
	lm.rec.end(id)
	res.set("stream.ingest_events_ms_p50", median(ingestMS))
	res.set("stream.flush_ms", median(flushMS))
	res.Samples["probe_stream_batches"], res.Samples["probe_stream_sweeps"] = len(ingestMS), len(flushMS)

	// worker -serve-http resumed from the same checkpoint.
	statePath := filepath.Join(cfg.outDir, fmt.Sprintf("probe-%d.state", os.Getpid()))
	if err := os.WriteFile(statePath, ckpt.Bytes(), 0o644); err != nil {
		return err
	}
	defer os.Remove(statePath)
	abs, err := filepath.Abs(statePath)
	if err != nil {
		return err
	}
	srv, err := startServer(cfg, "-state", abs)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	id = lm.rec.begin("probe worker -serve-http")
	defer lm.rec.end(id)
	failed := 0
	var httpIngest, grewMS []float64
	for _, batch := range batches {
		sid := lm.rec.begin("POST /ingest")
		t0 := time.Now()
		rep, err := c.ingest(batch)
		d := ms(time.Since(t0))
		lm.rec.end(sid)
		switch {
		case err != nil:
			failed++
		case rep.Grew:
			grewMS = append(grewMS, d)
		case !rep.Swept:
			httpIngest = append(httpIngest, d)
		}
	}
	big, small := 0, 0
	for m, d := range final.Dims {
		if d > final.Dims[big] {
			big = m
		}
		if d < final.Dims[small] {
			small = m
		}
	}
	get := func(name string, path func([]int) string) float64 {
		var lat []float64
		for i := 0; i < lm.reps(40); i++ {
			q := pool[(i*37)%len(pool)].Coords
			sid := lm.rec.begin("GET /" + name)
			t0 := time.Now()
			if _, err := c.do(http.MethodGet, path(q), nil); err != nil {
				failed++
			}
			lat = append(lat, ms(time.Since(t0)))
			lm.rec.end(sid)
		}
		return median(lat)
	}
	topkBig := get("topk", topkPath(big))
	topkSmall := get("topk small mode", topkPath(small))
	res.set("serve.predict_ms_p50", get("predict", predictPath))
	res.set("serve.ingest_overhead_ms", median(httpIngest)-median(ingestMS))
	res.set("serve.ingest_grew_ms_p50", median(grewMS))
	res.set("serve.topk_small_ms_p50", topkSmall)
	// (At test scale every mode can have the same size; the row is then 0.)
	res.set("serve.topk_ms_per_krow", (topkBig-topkSmall)/(float64(max(gen.dims[big]-gen.dims[small], 1))/1e3))
	res.Samples["probe_http_ingest"], res.Samples["probe_http_grew"] = len(httpIngest), len(grewMS)

	// Reads while sweeps run: large write batches so that a sweep
	// boundary falls every few requests, a closed-loop reader beside.
	var log []logOp
	tr := &traffic{
		base: srv.base, gen: gen, log: &log, queries: pool, seed: seed,
		batchSize: cfg.sweepEvery() / 16, growEvery: 8,
		readOps: []readOp{{"topk", topkPath(big)}},
	}
	writes, reads, _ := tr.run(lm.rec, time.Duration(float64(time.Second)*min(1, max(0.3, cfg.scale))))
	failed += failures(writes) + failures(reads)
	under := latencies(reads, func(r reqSample) bool {
		for _, w := range writes {
			if w.swept && r.start < w.end && w.start < r.end {
				return true
			}
		}
		return false
	})
	res.Samples["probe_reads_under_sweep"] = len(under)
	if len(under) == 0 {
		res.skip("serve.read_under_sweep_ms_p50", "no read overlapped a sweep; reporting the plain read median")
		under = latencies(reads, func(reqSample) bool { return true })
	}
	res.set("serve.read_under_sweep_ms_p50", median(under))
	res.op(len(batches)+3*lm.reps(40)+len(writes)+len(reads), failed)
	return nil
}
