# Single source of truth for build/test/bench invocations; CI runs these
# exact targets so local dev and the pipeline never drift.

GO ?= go

.PHONY: all build cross test race bench bench-alloc bench-tiered bench-quant bench-serving bench-serving-grpc bench-batching bench-prefix bench-ctxpar bench-cluster smoke-cluster proto cover fuzz fmt vet

all: build vet test

build:
	$(GO) build ./...

# The fp32 kernels are SSE assembly on amd64 with portable Go loops on every
# other architecture: vet a 64-bit and build a 32-bit non-amd64 target so the
# fallback keeps compiling.
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

# Race-mode sweep of the concurrent layers (plus everything else; the serve,
# core and attention packages are the ones exercising the new locking).
race:
	$(GO) test -race ./...

# Full benchmark pass; use BENCHTIME=1x for the CI smoke run.
BENCHTIME ?= 1s
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -run '^$$' ./...

# Allocation experiment: legacy vs pooled-scratch decode, tokens/sec and
# allocs/op, with a machine-readable report for the cross-PR perf trail.
ALLOC_JSON ?= BENCH_PR2.json
bench-alloc:
	$(GO) run ./cmd/alayabench -exp alloc -context 2048 -trials 2 -json $(ALLOC_JSON)

# Tiered-store experiment: resuming from the disk spill tier vs cold
# re-import (re-prefill + index rebuild), with the PR 3 perf artefact.
TIERED_JSON ?= BENCH_PR3.json
bench-tiered:
	$(GO) run ./cmd/alayabench -exp tiered -context 2048 -trials 2 -json $(TIERED_JSON)

# SQ8 quantized key plane experiment: fp32 vs int8 fused-scoring decode
# throughput, resident + spilled key bytes, recall@32 after the fp32
# rerank, with the PR 4 perf artefact.
QUANT_JSON ?= BENCH_PR4.json
bench-quant:
	$(GO) run ./cmd/alayabench -exp quant -context 2048 -trials 2 -json $(QUANT_JSON)

# Serving protocol experiment: v1 JSON per-layer round trips vs the v2
# one-round-trip step over the binary tensor wire, through the SDK over
# HTTP loopback, with the PR 5 perf artefact. Context 512 keeps attention
# compute small so the measurement isolates protocol cost (round trips +
# codec), which is what this experiment is about.
SERVING_JSON ?= BENCH_PR5.json
bench-serving:
	$(GO) run ./cmd/alayabench -exp serving -context 512 -trials 3 -json $(SERVING_JSON)

# gRPC transport experiment: the v2 binary decode path over the h2c gRPC
# wire vs the binary HTTP baseline, both listeners fronting one Service,
# with the PR 8 perf artefact. Same scale rationale as bench-serving:
# small context isolates transport cost.
GRPC_JSON ?= BENCH_PR8.json
bench-serving-grpc:
	$(GO) run ./cmd/alayabench -exp serving-grpc -context 512 -trials 3 -json $(GRPC_JSON)

# Continuous-batching experiment: serial per-request v2 step (the PR 5
# execution model) vs the scheduled step/steps/stream modes at 1/4/16
# concurrent sessions, with the PR 6 perf artefact. Tiny model geometry
# (1 layer x 2 GQA heads, context 64) keeps per-step attention compute
# small so the measurement isolates serving overhead — wave batching and
# round-trip amortization — which is what this experiment is about.
BATCHING_JSON ?= BENCH_PR6.json
bench-batching:
	$(GO) run ./cmd/alayabench -exp batching -context 64 -layers 1 -qheads 2 -kvheads 1 -trials 5 -json $(BATCHING_JSON)

# Prefix-sharing experiment: 16 copy-on-write sessions over one shared
# 2048-token prefix vs single-context and materialized footprints, plus
# trie lookup scaling against the resident-store size, with the PR 7 perf
# artefact. The run itself enforces the <= 1.25x resident-bytes bound.
PREFIX_JSON ?= BENCH_PR7.json
bench-prefix:
	$(GO) run ./cmd/alayabench -exp prefix -context 2048 -trials 2 -json $(PREFIX_JSON)

# Context-parallelism experiment: per-context index-build latency and
# decode throughput across range-shard counts [1,2,4,8] at a long context,
# graph recall parity of sharded probes, and the short-context guard, with
# the PR 9 perf artefact. 1 layer x 2 query heads x 1 kv head gives one
# index group, so the 1-shard build is genuinely serial and the sweep
# isolates what sharding buys rather than job-level fan-out across groups.
CTXPAR_JSON ?= BENCH_PR9.json
bench-ctxpar:
	$(GO) run ./cmd/alayabench -exp ctxpar -context 4096 -layers 1 -qheads 2 -kvheads 1 -trials 2 -json $(CTXPAR_JSON)

# Cluster routing experiment: decode step latency through the shard
# router over 1/2/4 in-process gRPC nodes vs the local service, plus a
# range-sharded fan-out row, with the PR 10 perf artefact. Same scale
# rationale as bench-serving: small context isolates routing cost (the
# extra hop, fan-out, and the log-sum-exp merge).
CLUSTER_JSON ?= BENCH_PR10.json
bench-cluster:
	$(GO) run ./cmd/alayabench -exp cluster -context 512 -trials 3 -json $(CLUSTER_JSON)

# Cluster smoke: two real alayad nodes plus a shard router on loopback —
# range-sharded placement, prefill through the router, per-node health
# via alayactl nodes, clean close.
smoke-cluster:
	sh scripts/smoke_cluster.sh

# Regenerate the committed gRPC protobuf artefacts (alaya.pb.go and
# alaya.proto) from the descriptor table in the generator; CI fails if
# the committed files drift from the generator's output.
proto:
	$(GO) run ./internal/serve/grpc/pb/gen -dir internal/serve/grpc/pb

# Coverage ratchet: fail if total statement coverage falls below COVER_MIN.
COVER_MIN ?= 80.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "total statement coverage: $$total% (floor: $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || \
		{ echo "coverage fell below the ratchet floor"; exit 1; }

# Short coverage-guided fuzz passes over the spill-file parser and the SSE
# dot kernel against its scalar reference (the seeds also run as ordinary
# tests in `make test`).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/storage/vfs -run '^FuzzOpen$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vec -run '^FuzzDotMatchesGeneric$$' -fuzz '^FuzzDotMatchesGeneric$$' -fuzztime $(FUZZTIME)

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
