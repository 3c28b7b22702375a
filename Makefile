GO ?= go

# Packages exercising the distributed machinery; these are the ones the
# race detector must stay clean on. The root package is one of them:
# every Stream boundary runs on a cluster.Local.
CLUSTER_PKGS = . ./internal/cluster/... ./internal/core/... ./internal/dplan/... ./cmd/worker/...

# The workspace-threaded numeric stack. Workspaces are per-worker by
# contract (see DESIGN.md, "Memory model"); the race detector over these
# packages is what enforces that no scratch buffer leaks across
# goroutines.
NUMERIC_PKGS = ./internal/par/... ./internal/mat/... ./internal/mttkrp/... \
	./internal/layout/... ./internal/cp/... ./internal/dtd/... \
	./internal/completion/... ./internal/tensor/...

.PHONY: all build fmt test vet race portable chaos check census results fuzz profile clean

all: check

build:
	$(GO) build ./...

# Fails when any Go file in the tree is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Options left at Threads 0 run on max(1, GOMAXPROCS/Workers) threads,
# so on a multi-core machine the root package's default-options tests
# and the goldens built on them cover the pooled path only; the second
# run holds them to the sequential one.
test: build
	$(GO) test ./...
	GOMAXPROCS=1 $(GO) test . ./internal/goldens/...

# Race-detector pass over the cluster transport, the distributed step
# driver, the worker binary, and the workspace-threaded numeric stack —
# the fault-tolerance tests (retry, reconnection, heartbeat, chaos,
# kill-and-resume) and the in-place kernel/aliasing tests must all pass
# with -race. internal/goldens holds the cross-engine equivalences,
# among them the three-rank DMS-MG binding over cluster.Local;
# internal/bench drives core steps on cluster.Local.
race:
	$(GO) test -race $(CLUSTER_PKGS) $(NUMERIC_PKGS) ./internal/goldens/... ./internal/obs/... ./internal/sample/... \
		./internal/bench/...

# The portable order-3 MTTKRP loop. amd64 builds run the SSE2 kernel in
# internal/layout, so the purego tag holds the Go loop to the COO oracle
# and the goldens here, and an arm64 vet checks that the non-amd64 file
# set compiles. The event path runs the same row kernel, so its tests
# run under the tag too: TestEventScriptPinned's hashes hold the
# portable loop on /ingest's row updates.
portable:
	$(GO) test -tags purego ./internal/layout/... ./internal/mttkrp/... ./internal/goldens/...
	$(GO) test -tags purego -run 'Event|Updater|Delta' . ./internal/dtd/...
	GOARCH=arm64 $(GO) vet ./internal/layout/...

# The recovery tests of the stream driver and the worker binary —
# rank deaths, joins, drains, kill-and-resume — three times over with
# -race: which rank sees a death first, and where each survivor is when
# it does, varies from run to run.
CHAOS_TESTS = Elastic|Chaos|Kill|OneDriver

chaos:
	$(GO) test -race -count=3 -run '$(CHAOS_TESTS)' ./internal/core/ ./cmd/worker/

check: fmt vet test race portable

# The committed evaluation is one run of
# `go run ./cmd/dismastd-bench -exp all -svgdir results/figures`.
# This reruns that command line into a temporary directory (about 20 s
# on two cores) and compares the output with results/full_run.txt on
# the deterministic columns, and the charts with results/figures/ byte
# for byte. `go test` reruns only its fastest blocks; the whole rerun
# is the build-tagged TestFullRunIsTheCode.
results:
	$(GO) test -tags results -count=1 -run '^TestFullRunIsTheCode$$' ./cmd/dismastd-bench/

# The counts ROADMAP.md's aim 2 ("fewer packages, fewer options, fewer
# lines") is judged by: Go lines outside benchmark/, split into non-test
# and test; packages under internal/; each binary's flags as its -h
# lists them; the exported fields of the root package's option structs
# and of core.ElasticOptions as `go doc` lists them; and each internal
# package's exported identifiers — a grep of its non-test files for
# top-level `func Name`, `func (recv) Name` and `type Name` lines with
# Name capitalised (no `type (` groups are in use); and the entries of
# reachabilityAllowlist, the internal declarations only tests may call
# (reachability_test.go bounds them at 10). Report only — no count
# fails the target.
CENSUS_OPTIONS = dismastd.Options dismastd.CompletionOptions dismastd/internal/core.ElasticOptions

census:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -exec cat {} + | wc -l)"
	@echo "test Go lines outside benchmark/: $$(find . -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -exec cat {} + | wc -l)"
	@echo "packages under internal/: $$($(GO) list ./internal/... | wc -l)"
	@echo "reachability allowlist entries: $$(awk '/^var reachabilityAllowlist = /,/^}/' reachability_test.go | grep -c '^	"')"
	@for d in cmd/*; do \
		echo "flags of $$(basename $$d): $$($(GO) run ./$$d -h 2>&1 | grep -c '^  -')"; \
	done
	@for t in $(CENSUS_OPTIONS); do \
		echo "exported fields of $$t: $$($(GO) doc $$t | awk "/^type $${t##*.} struct/,/^}/" | grep -cE '^	[A-Z]')"; \
	done
	@for d in $$(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		echo "exported funcs, methods and types of $$d: $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cE '^(func (\([^)]*\) )?|type )[A-Z]')"; \
	done

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
