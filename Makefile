# Development targets; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race bench bench-full bench-smoke fmt fmt-check vet lint sconelint fuzz serve e2e e2e-dist e2e-store e2e-prove e2e-multifault e2e-leakage ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Campaign benchmark suite: PRESENT-80 across all three entropy variants
# plus the k=2 multi-fault plan sweep and the engine-configuration scaling
# matrix (workers x batch sizes), written to the git-ignored
# sconebench.json (runs/sec, ns/eval, allocs) so the committed BENCH_PR*.json
# history files are never overwritten. CI uploads the report as an artifact
# so the perf trajectory is tracked per commit.
bench:
	$(GO) run ./cmd/sconebench -short -o sconebench.json

# Full go-test benchmark run (slow; one benchmark per paper table/figure
# plus the raw gate-eval throughput benchmarks).
bench-full:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration of every benchmark — proves they still compile and run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# Custom vet passes (internal/vetkit): norand, cachedcompile, ctxexecute,
# obsnames.
lint: vet
	$(GO) run ./cmd/sconevet .

# Run the fault-campaign daemon locally with durable state. Submit work
# with cmd/sconectl or plain curl; SIGINT drains gracefully (running
# campaigns checkpoint and resume on the next start).
SCONED_STATE ?= .sconed-state
serve:
	$(GO) run ./cmd/sconed -addr :8344 -state $(SCONED_STATE)

# Service end-to-end suite under the race detector: HTTP submission,
# NDJSON streaming, bit-identical results vs direct Campaign.Execute,
# and graceful-drain + checkpoint/resume.
e2e:
	$(GO) test -race -count=1 ./internal/service/... ./cmd/sconed/... ./cmd/sconectl/...

# Distributed campaign fabric under the race detector: coordinator lease
# table, worker kill + lease reassignment with bit-identical merged results,
# the /v1 worker protocol round trip, and sconed's worker mode.
e2e-dist:
	$(GO) test -race -count=1 \
		-run 'TestCoordinator|TestE2EDistributed|TestDistEndpoints|TestSubmitRetr|TestDaemonWorker|TestWorkersLeasesAndTopFleet' \
		./internal/service/... ./cmd/sconed/... ./cmd/sconectl/...

# Content-addressed result store under the race detector: resubmitting an
# identical campaign after a daemon restart must simulate zero batches
# (every batch a scone_store_hits_total hit) with bit-identical results for
# all three entropy variants, extended campaigns must splice cached and
# fresh batches bit-identically, and the distributed coordinator must grant
# no leases for fully cached work.
e2e-store:
	$(GO) test -race -count=1 -run 'TestE2EStore|TestStore|FuzzCampaignKey|FuzzBatchRecord|FuzzLogRecovery' \
		./internal/service/... ./internal/store/...

# Formal prover under the race detector: every single-fault location of
# the protected PRESENT-80 core proves flag/key-independent, seeded bias
# fixtures produce dependent verdicts with witnesses, and a daemon drained
# mid-proof resumes on restart without re-proving a completed
# (location, model) pair — measured through scone_prove_locations_total.
e2e-prove:
	$(GO) test -race -count=1 \
		-run 'TestE2EProve|TestProve|TestProtectedPresent80Independent' \
		./internal/service/... ./internal/prove/... ./cmd/sconectl/...

# Multi-fault planning subsystem under the race detector: the multifault
# job kind must produce bit-identical sweep results in-process, through
# the distributed lease fabric and replayed from the result store (both
# kfault and persistent modes), and a daemon drained mid-sweep must
# resume at the recorded placement index with a stitched result equal to
# an uninterrupted run.
e2e-multifault:
	$(GO) test -race -count=1 \
		-run 'TestE2EMultiFault|TestMultiFault' \
		./internal/service/... ./internal/plan/...

# Leakage evaluation under the race detector: the TVLA evaluator's
# determinism and resume bit-identity, the masked-vs-unmasked verdict
# separation, and a daemon drained mid-evaluation must resume on restart
# completing exactly the remaining trace batches — measured through
# scone_leakage_batches_total — with t-statistics bit-identical to an
# uninterrupted run.
e2e-leakage:
	$(GO) test -race -count=1 \
		-run 'TestE2ELeakage|TestLeakage|TestFacadeLeakage|TestTTest' \
		./internal/service/... ./internal/leakage/... ./internal/stats/... .

# Static countermeasure audit: the synthesised PRESENT-80 three-in-one
# core must lint clean for every entropy variant, and the unprotected
# baseline must be flagged.
sconelint:
	$(GO) run ./cmd/sconelint -summary -cipher present80 -scheme three-in-one -entropy prime
	$(GO) run ./cmd/sconelint -summary -cipher present80 -scheme three-in-one -entropy per-round
	$(GO) run ./cmd/sconelint -summary -cipher present80 -scheme three-in-one -entropy per-sbox
	@if $(GO) run ./cmd/sconelint -rules lambda-cone -scheme unprotected >/dev/null 2>&1; then \
		echo "sconelint failed to flag the unprotected core" >&2; exit 1; \
	else echo "unprotected core correctly flagged"; fi

# Replay the checked-in fuzz seed corpora (no open-ended fuzzing).
fuzz:
	$(GO) test -run=Fuzz ./internal/netlist ./internal/lint ./internal/store ./internal/prove ./internal/plan

ci: fmt-check build lint test race bench-smoke fuzz sconelint
