// Multiprocess: run a DisMASTD streaming step as a REAL multi-process
// cluster on this machine — separate OS processes exchanging factor
// rows and Gram reductions over TCP, exactly the deployment cmd/worker
// supports.
//
//	go run ./examples/multiprocess
//
// The driver writes two nested snapshots to disk, starts a rendezvous,
// and re-executes itself three times in worker mode. Every worker
// process loads the same files, deterministically builds the same
// distribution plan, joins the rendezvous for its rank, and runs the
// SPMD step; rank 0 reports the result. A second round then performs
// the incremental streaming step from the saved state.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"dismastd"
	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

const (
	workers = 3
	rank    = 5
)

var (
	role   = flag.String("role", "driver", "internal: driver or worker")
	join   = flag.String("join", "", "internal: rendezvous address")
	dir    = flag.String("dir", "", "internal: working directory")
	stepNo = flag.Int("step", 0, "internal: 0 = bootstrap, 1 = streaming step")
)

func main() {
	flag.Parse()
	if *role == "worker" {
		if err := workerMain(); err != nil {
			log.Fatalf("worker: %v", err)
		}
		return
	}
	if err := driverMain(); err != nil {
		log.Fatal(err)
	}
}

func driverMain() error {
	tmp, err := os.MkdirTemp("", "dismastd-multiprocess")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Two nested snapshots of a Book-shaped stream.
	full := dismastd.GenerateDataset(dismastd.DatasetBook, 8000, 5)
	seq, err := dismastd.GrowthSchedule(full, []float64{0.85, 1.0})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		f, err := os.Create(filepath.Join(tmp, fmt.Sprintf("snap%d.bin", i)))
		if err != nil {
			return err
		}
		if err := dismastd.WriteTensorBinary(f, seq.Snapshot(i)); err != nil {
			return err
		}
		f.Close()
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	for step := 0; step < 2; step++ {
		rv, err := cluster.NewRendezvous("127.0.0.1:0", workers)
		if err != nil {
			return err
		}
		fmt.Printf("== step %d: launching %d worker processes against %s ==\n", step, workers, rv.Addr())
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cmd := exec.Command(self,
					"-role", "worker", "-join", rv.Addr(), "-dir", tmp, "-step", fmt.Sprint(step))
				cmd.Stdout = os.Stdout
				cmd.Stderr = os.Stderr
				errs[w] = cmd.Run()
			}(w)
		}
		wg.Wait()
		rv.Close()
		for w, err := range errs {
			if err != nil {
				return fmt.Errorf("worker process %d: %w", w, err)
			}
		}
	}
	fmt.Println("== both steps completed across real OS processes ==")
	return nil
}

func workerMain() error {
	load := func(name string) (*tensor.Tensor, error) {
		f, err := os.Open(filepath.Join(*dir, name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tensor.Read(f)
	}
	snap, err := load(fmt.Sprintf("snap%d.bin", *stepNo))
	if err != nil {
		return err
	}
	prev := dtd.EmptyState(snap.Order(), rank)
	if *stepNo > 0 {
		f, err := os.Open(filepath.Join(*dir, "state.gob"))
		if err != nil {
			return err
		}
		prev, err = dtd.ReadState(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	node, err := cluster.JoinTCP(*join, "127.0.0.1:0", 30*time.Second)
	if err != nil {
		return err
	}
	defer node.Close()

	job, err := core.NewStepJob(prev, snap, core.Options{
		Rank: rank, MaxIters: 5, Seed: 9,
		Workers: node.Size(), Method: partition.MTPMethod,
	})
	if err != nil {
		return err
	}
	stats, err := node.Run(job.RunWorker)
	if err != nil {
		return err
	}
	fmt.Printf("  pid %d rank %d/%d: sent %d KB in %d messages\n",
		os.Getpid(), node.Rank(), node.Size(),
		stats.Ranks[0].BytesSent/1024, stats.Ranks[0].MsgsSent)

	if node.Rank() != 0 {
		return nil
	}
	st, sum, err := job.Result()
	if err != nil {
		return err
	}
	fmt.Printf("  rank 0: step %d done, %d sweeps, loss %.2f, touched %d entries\n",
		*stepNo, sum.Iters, sum.Loss, sum.ComplementNNZ)
	f, err := os.Create(filepath.Join(*dir, "state.gob"))
	if err != nil {
		return err
	}
	defer f.Close()
	return dtd.WriteState(f, st)
}
