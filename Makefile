GO ?= go

# Packages exercising the distributed machinery; these are the ones the
# race detector must stay clean on.
CLUSTER_PKGS = ./internal/cluster/... ./internal/core/... ./internal/dplan/... ./cmd/worker/...

# The workspace-threaded numeric stack. Workspaces are per-worker by
# contract (see DESIGN.md, "Memory model"); the race detector over these
# packages is what enforces that no scratch buffer leaks across
# goroutines.
NUMERIC_PKGS = ./internal/par/... ./internal/mat/... ./internal/mttkrp/... \
	./internal/layout/... ./internal/cp/... ./internal/dtd/... \
	./internal/dmsmg/... ./internal/completion/...

.PHONY: all build test vet race check fuzz profile clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

# Race-detector pass over the cluster transport, the distributed step
# driver, the worker binary, and the workspace-threaded numeric stack —
# the fault-tolerance tests (retry, reconnection, heartbeat, chaos,
# kill-and-resume) and the in-place kernel/aliasing tests must all pass
# with -race. internal/goldens holds the cross-engine equivalences,
# among them the three-rank DMS-MG binding over cluster.Local.
race:
	$(GO) test -race $(CLUSTER_PKGS) $(NUMERIC_PKGS) ./internal/goldens/... ./internal/obs/... ./internal/sample/...

check: vet test race

# Every Fuzz* in the module, FUZZTIME each, one after another. The list
# comes from `go test -list`, so a new fuzzer needs no edit here. New
# corpus entries are minimized for at most a second each: the default
# minute per entry can eat a short FUZZTIME whole.
FUZZTIME ?= 10s

fuzz:
	@$(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read pkg fz; do \
		echo "== $$pkg $$fz"; \
		$(GO) test -run '^$$' -fuzz "^$$fz\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s $$pkg || exit 1; \
	done

# Performance is measured by the one outside-in benchmark — `bash
# benchmark/run.sh`, see benchmark/README.md — not by make targets. The
# Go Benchmark* functions remain for ad-hoc `go test -bench` runs.

# CPU and heap profiles of the distributed stream on the in-process
# cluster — five Book-shaped, dims-dominated growth steps through one
# core.Session at MTP on two workers, the way the dist_* workloads pay
# for a pass, so the per-step fixed cost (plan, stack, quiet pass,
# gather) shows next to the sweeps; inspect with
# `$(GO) tool pprof cpu.prof`.
profile:
	$(GO) test -bench=BenchmarkSessionStream -benchtime=5x -run '^$$' \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/core/

clean:
	$(GO) clean ./...
