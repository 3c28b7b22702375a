package dismastd_test

import (
	"bytes"
	"math"
	"testing"

	"dismastd"
	"dismastd/internal/dtd"
	"dismastd/internal/xrand"
)

// growingRatings builds a small nested pair of rating snapshots through
// the public API only.
func growingRatings(t *testing.T) (*dismastd.Tensor, *dismastd.Tensor) {
	t.Helper()
	full := dismastd.NewBuilder([]int{8, 6, 4})
	entries := [][4]int{
		{0, 0, 0, 5}, {1, 2, 0, 3}, {2, 1, 1, 4}, {3, 3, 1, 2}, {4, 4, 2, 5},
		{0, 5, 2, 1}, {5, 0, 2, 4}, {6, 2, 3, 3}, {7, 5, 3, 5}, {2, 4, 3, 2},
		{1, 1, 1, 4}, {3, 0, 0, 3}, {5, 3, 2, 2}, {6, 4, 1, 5}, {4, 2, 0, 1},
	}
	for _, e := range entries {
		full.Append([]int{e[0], e[1], e[2]}, float64(e[3]))
	}
	x := full.Build()
	return x.Prefix([]int{5, 5, 3}), x
}

// TestStreamCentralizedAndDistributedAgree pins the one engine behind
// every Workers value: at one worker the stream is the dtd.Init →
// dtd.Step chain bit for bit, at three it agrees to reordering
// tolerance, and every boundary — the first one included — runs on the
// cluster and reports its traffic and partition balance.
func TestStreamCentralizedAndDistributedAgree(t *testing.T) {
	first, second := growingRatings(t)
	opts := dismastd.Options{Rank: 2, MaxIters: 8, Seed: 3, Partitioner: dismastd.MTP}
	run := func(workers int) ([]*dismastd.Dense, *dismastd.StepReport) {
		o := opts
		o.Workers = workers
		s := dismastd.NewStream(o)
		initRep, err := s.Ingest(first)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Ingest(second)
		if err != nil {
			t.Fatal(err)
		}
		if rep.EntriesTouched >= second.NNZ() {
			t.Fatalf("streaming step touched %d of %d entries", rep.EntriesTouched, second.NNZ())
		}
		if s.Snapshots() != 2 {
			t.Fatalf("Snapshots = %d", s.Snapshots())
		}
		return s.Factors(), initRep
	}
	central, _ := run(1)
	distributed, initRep := run(3)

	dopts := dtd.Options{Rank: opts.Rank, MaxIters: opts.MaxIters, Seed: opts.Seed}
	st, _, err := dtd.Init(first, dopts)
	if err != nil {
		t.Fatal(err)
	}
	dopts.Seed = xrand.Derive(opts.Seed, 1)
	if st, _, err = dtd.Step(st, second, dopts); err != nil {
		t.Fatal(err)
	}
	for m := range central {
		for i, v := range central[m].Data {
			if math.Float64bits(v) != math.Float64bits(st.Factors[m].Data[i]) {
				t.Fatalf("Workers 1: mode %d element %d is %v, dtd chain %v", m, i, v, st.Factors[m].Data[i])
			}
		}
	}

	if initRep.BytesOnWire <= 0 || len(initRep.Imbalance) != first.Order() {
		t.Fatalf("Workers 3 first boundary: BytesOnWire %d, Imbalance %v — not run on the cluster", initRep.BytesOnWire, initRep.Imbalance)
	}
	for m := range central {
		for i := range central[m].Data {
			if d := math.Abs(central[m].Data[i] - distributed[m].Data[i]); d > 1e-7 {
				t.Fatalf("mode %d element %d differs by %v", m, i, d)
			}
		}
	}
}

func TestStreamPredictInRange(t *testing.T) {
	first, second := growingRatings(t)
	s := dismastd.NewStream(dismastd.Options{Rank: 3, MaxIters: 30, Seed: 5})
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(second); err != nil {
		t.Fatal(err)
	}
	if len(s.Dims()) != 3 || s.Dims()[0] != 8 {
		t.Fatalf("Dims = %v", s.Dims())
	}
	// Predictions for observed cells should be finite and roughly in
	// the rating scale.
	p := s.Predict([]int{0, 0, 0})
	if math.IsNaN(p) || p < -10 || p > 20 {
		t.Fatalf("prediction %v implausible", p)
	}
}

func TestStreamValidation(t *testing.T) {
	s := dismastd.NewStream(dismastd.Options{Rank: 0})
	first, _ := growingRatings(t)
	if _, err := s.Ingest(first); err == nil {
		t.Fatal("rank 0 accepted")
	}
	s = dismastd.NewStream(dismastd.Options{Rank: 2})
	if _, err := s.Ingest(dismastd.NewBuilder([]int{2, 2}).Build()); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if s.Factors() != nil || s.Dims() != nil {
		t.Fatal("state before first ingest should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict before Ingest did not panic")
		}
	}()
	s.Predict([]int{0, 0})
}

func TestDecomposeStatic(t *testing.T) {
	_, x := growingRatings(t)
	res, err := dismastd.Decompose(x, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Factors) != 3 || res.Fit <= 0 || res.Iters == 0 {
		t.Fatalf("result %+v", res)
	}
	v := dismastd.Predict(res.Factors, []int{0, 0, 0})
	if math.IsNaN(v) {
		t.Fatal("NaN prediction")
	}
}

func TestPartitionSlicesAPI(t *testing.T) {
	weights := []int64{10, 1, 1, 1, 1, 10, 1, 1}
	for _, method := range []dismastd.Partitioner{dismastd.GTP, dismastd.MTP} {
		assign, loads := dismastd.PartitionSlices(weights, 2, method)
		if len(assign) != len(weights) || len(loads) != 2 {
			t.Fatalf("%v: assign %d loads %d", method, len(assign), len(loads))
		}
		if loads[0]+loads[1] != 26 {
			t.Fatalf("%v: loads %v", method, loads)
		}
	}
	if dismastd.Imbalance([]int64{13, 13}) != 0 {
		t.Fatal("balanced loads should report 0")
	}
	if dismastd.GTP.String() != "GTP" || dismastd.MTP.String() != "MTP" {
		t.Fatal("partitioner names")
	}
}

func TestGenerateDatasetAndGrowth(t *testing.T) {
	x := dismastd.GenerateDataset(dismastd.DatasetNetflix, 5000, 7)
	if x.NNZ() < 4000 {
		t.Fatalf("nnz %d", x.NNZ())
	}
	seq, err := dismastd.GrowthSchedule(x, dismastd.PaperGrowth())
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 6 {
		t.Fatalf("schedule %d steps", seq.Len())
	}
	// The schedule feeds straight into a Stream.
	s := dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 2, Seed: 9})
	for i := 0; i < seq.Len(); i++ {
		if _, err := s.Ingest(seq.Snapshot(i)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestTensorIORoundtrip(t *testing.T) {
	_, x := growingRatings(t)
	var txt, bin bytes.Buffer
	if err := dismastd.WriteTensorText(&txt, x); err != nil {
		t.Fatal(err)
	}
	if err := dismastd.WriteTensorBinary(&bin, x); err != nil {
		t.Fatal(err)
	}
	xt, err := dismastd.ReadTensor(&txt)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := dismastd.ReadTensor(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if xt.NNZ() != x.NNZ() || xb.NNZ() != x.NNZ() {
		t.Fatal("roundtrip lost entries")
	}
}

func TestNewSequenceAPI(t *testing.T) {
	_, x := growingRatings(t)
	seq, err := dismastd.NewSequence(x, [][]int{{5, 5, 3}, {8, 6, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 2 {
		t.Fatalf("Len = %d", seq.Len())
	}
	if _, err := dismastd.NewSequence(x, [][]int{{9, 6, 4}}); err == nil {
		t.Fatal("oversized step accepted")
	}
}

func TestStreamSaveResume(t *testing.T) {
	first, second := growingRatings(t)
	opts := dismastd.Options{Rank: 2, MaxIters: 10, Seed: 13}
	s := dismastd.NewStream(opts)
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := s.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := dismastd.ResumeStream(bytes.NewReader(ckpt.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := s.Ingest(second)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := restored.Ingest(second)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Loss != repB.Loss {
		t.Fatalf("resumed stream diverged: loss %v vs %v", repA.Loss, repB.Loss)
	}
	fa, fb := s.Factors(), restored.Factors()
	for m := range fa {
		for i := range fa[m].Data {
			if fa[m].Data[i] != fb[m].Data[i] {
				t.Fatalf("resumed factors differ at mode %d elem %d", m, i)
			}
		}
	}
}

func TestStreamSaveResumeErrors(t *testing.T) {
	s := dismastd.NewStream(dismastd.Options{Rank: 2})
	var buf bytes.Buffer
	if err := s.Save(&buf); err == nil {
		t.Fatal("Save before Ingest accepted")
	}
	if _, err := dismastd.ResumeStream(bytes.NewReader([]byte("junk")), dismastd.Options{Rank: 2}); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	// Rank mismatch.
	first, _ := growingRatings(t)
	good := dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 2})
	if _, err := good.Ingest(first); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := good.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := dismastd.ResumeStream(bytes.NewReader(buf.Bytes()), dismastd.Options{Rank: 5}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := dismastd.ResumeStream(bytes.NewReader(buf.Bytes()), dismastd.Options{Rank: 0}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestCompleteAPI(t *testing.T) {
	first, second := growingRatings(t)
	res, err := dismastd.Complete(first, dismastd.CompletionOptions{Rank: 2, MaxIters: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSE < 0 || len(res.Factors) != 3 {
		t.Fatalf("result %+v", res)
	}
	next, err := dismastd.CompleteNext(res, second, dismastd.CompletionOptions{Rank: 2, MaxIters: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for m, d := range second.Dims {
		if next.Factors[m].Rows != d {
			t.Fatalf("mode %d not grown", m)
		}
	}
	if rmse := dismastd.PredictionRMSE(second, next.Factors); math.IsNaN(rmse) {
		t.Fatal("NaN prediction RMSE")
	}
	if _, err := dismastd.Complete(first, dismastd.CompletionOptions{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := dismastd.Complete(first, dismastd.CompletionOptions{Rank: 2, Workers: -3}); err == nil {
		t.Fatal("Complete accepted Workers -3")
	}
	if _, err := dismastd.CompleteNext(res, second, dismastd.CompletionOptions{Rank: 2, Workers: -3}); err == nil {
		t.Fatal("CompleteNext accepted Workers -3")
	}
	smaller := first
	if _, err := dismastd.CompleteNext(next, smaller, dismastd.CompletionOptions{Rank: 2}); err == nil {
		t.Fatal("shrinking snapshot accepted")
	}
}

func TestCompleteDistributedMatchesCentralized(t *testing.T) {
	first, second := growingRatings(t)
	opts := dismastd.CompletionOptions{Rank: 2, MaxIters: 10, Seed: 7}
	central, err := dismastd.Complete(first, opts)
	if err != nil {
		t.Fatal(err)
	}
	centralNext, err := dismastd.CompleteNext(central, second, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 3
	opts.Partitioner = dismastd.MTP
	distributed, err := dismastd.Complete(first, opts)
	if err != nil {
		t.Fatal(err)
	}
	distributedNext, err := dismastd.CompleteNext(distributed, second, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*dismastd.CompletionResult{{central, distributed}, {centralNext, distributedNext}} {
		for m := range pair[0].Factors {
			for i := range pair[0].Factors[m].Data {
				if pair[0].Factors[m].Data[i] != pair[1].Factors[m].Data[i] {
					t.Fatalf("mode %d elem %d differs", m, i)
				}
			}
		}
	}
}
