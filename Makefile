# Developer entry points. Everything is plain `go` underneath; the
# targets just encode the common invocations.

GO ?= go

.PHONY: all build test test-short race cover bench bench-smoke experiments paper fmt fmt-check vet lint verify-plans fuzz-smoke checkptr chaos check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper figure plus kernel micro-benches
# (BenchmarkKernelRegions: reference vs tiled; BenchmarkKernelXorplan:
# table vs xorplan). Timings only; bench-smoke keeps the ledger.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark (bench/, see bench/README.md), the one
# performance ledger: its own tests, then a 2-second pass over every
# workload with every output checked. bench/ is a module of its own, so
# the root `go test ./...` never runs bench/bench_test.go. Each
# workload's record goes to .bench_build/bench-smoke.jsonl, the format
# `bash bench/run.sh -compare base.jsonl head.jsonl` diffs. Fails when
# the result line counts a failed operation.
bench-smoke:
	cd bench && $(GO) test -timeout 900s .
	rm -f .bench_build/bench-smoke.jsonl
	@line=$$(bash bench/run.sh -workload all -seconds 2 -trace 0 -record .bench_build/bench-smoke.jsonl | tail -n 1); echo "$$line"; \
		case "$$line" in *'"failed":0,'*) ;; *) echo "bench-smoke: failed operations"; exit 1;; esac

# Regenerate the paper's figures at CI scale (minutes).
experiments:
	$(GO) run ./cmd/ppmbench -exp all

# Regenerate at the paper's scale: 32 MB stripes, 10 iterations, full grids.
paper:
	$(GO) run ./cmd/ppmbench -exp all -paper

# fmt rewrites in place; fmt-check only lists and fails, for CI.
fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench/ is a module of its own, so the root ./... never reaches it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# The repository's own analyzers: hot-path allocations, goroutine error
# routing, gf region-call contracts, stats accounting, no-copy types.
lint:
	$(GO) run ./cmd/ppmlint ./...

# Symbolically prove every compiled plan in the code zoo — XOR
# programs, row-block lowerings, decode plans, repair plans and delta
# updaters — equal to their coefficient matrices, across all three
# kernel backends. Exits non-zero with an op-level diagnosis on the
# first unprovable plan.
verify-plans:
	$(GO) run ./cmd/ppmverify

# Short differential-fuzz burst over every fuzz target. Each target
# needs its own `go test -fuzz` invocation (the tool refuses multiple
# matches), so the list is explicit.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/gf -run=^$$ -fuzz=FuzzMulAgainstReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gf -run=^$$ -fuzz=FuzzRegionOps -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gf -run=^$$ -fuzz=FuzzFusedAgainstScalar -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/xorplan -run=^$$ -fuzz=FuzzProgramVsScalar -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/planverify -run=^$$ -fuzz=FuzzVerifierVsDifferential -fuzztime=$(FUZZTIME)

# Pointer-safety instrumentation over the packages that sit on the
# Go/assembly boundary.
checkptr:
	$(GO) test -gcflags=all=-d=checkptr ./internal/gf ./internal/kernel ./internal/xorplan

# Fault storm: the end-to-end ppmfile chaos tests (missing disk +
# silent flip + transient errors + a permanently hung strip, recovered
# byte-identical) plus the harness chaos experiment over SD/LRC/RS.
# Every schedule spec is printed, so a failing run replays from the
# log; CHAOS_SEED varies the storm deterministically.
CHAOS_SEED ?= 1
chaos:
	$(GO) test ./cmd/ppmfile -run 'TestChaosDecodeStorm|TestScrubRebuildsMissingDisk|TestDecodeTornWriteCaught' -v
	$(GO) run ./cmd/ppmbench -exp chaos -seed $(CHAOS_SEED)

check: build fmt-check vet lint test race verify-plans

clean:
	$(GO) clean ./...
