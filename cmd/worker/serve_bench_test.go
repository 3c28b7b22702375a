package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"dismastd"
)

// BenchmarkServe measures the serving front end under concurrent load:
// one writer streams event micro-batches over HTTP while N reader
// clients hammer /predict and /topk against the epoch-swapped
// snapshots. Each op is one 256-event ingest batch; the extra columns
// report the ingest throughput (events_per_sec) and the query latency
// distribution (query_p50_us/p95_us/p99_us). The repository benchmark's
// serve_write / serve_read workloads are the tracked figures.
func BenchmarkServe(b *testing.B) {
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServe(b, clients)
		})
	}
}

const benchBatch = 256

func benchServe(b *testing.B, clients int) {
	opts := dismastd.Options{Rank: 8, MaxIters: 3, Seed: 1, SweepEvery: 1 << 14}
	srv := quietServer(dismastd.NewStream(opts))
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	// Warm: enough history for a real model, then one sweep boundary so
	// queries serve from a decomposed state, and one ingest+query pass
	// so every scratch buffer is sized.
	post := func(body []byte) {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	var seed int64 = 1
	nextBatch := func() []byte {
		events := serveEvents(benchBatch, seed)
		seed++
		body, err := json.Marshal(events)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	post(nextBatch())
	if resp, err := http.Post(ts.URL+"/flush", "application/json", nil); err != nil {
		b.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post(nextBatch())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	lats := make([][]time.Duration, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			urls := []string{
				ts.URL + "/predict?at=3,2,1",
				ts.URL + "/topk?mode=1&at=3,_,1&k=5",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				resp, err := client.Get(urls[i%len(urls)])
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lats[c] = append(lats[c], time.Since(t0))
			}
		}(c)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(nextBatch())
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*benchBatch)/elapsed, "events_per_sec")
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 && elapsed > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(all)-1))
			return float64(all[i].Microseconds())
		}
		b.ReportMetric(q(0.50), "query_p50_us")
		b.ReportMetric(q(0.95), "query_p95_us")
		b.ReportMetric(q(0.99), "query_p99_us")
		b.ReportMetric(float64(len(all))/elapsed, "queries_per_sec")
	}
}
