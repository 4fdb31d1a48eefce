#!/usr/bin/env sh
# Tier-1+ gate: everything the repo promises must stay green, plus formatting
# and static invariants, the race-detector pass over the packages with
# goroutine-parallel kernels, and a one-iteration benchmark smoke so the
# hot-path benchmarks can never rot.
#
# Usage: scripts/ci.sh

set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== edgepc-lint ./... (static invariants; see DESIGN.md §7) =="
# Pin the interprocedural analyzer pack by name so a renamed/deleted analyzer
# fails loudly instead of silently shrinking coverage (mirrors the fuzz-target
# pinning below).
lint_list=$(go run ./cmd/edgepc-lint -list)
for a in lockpair wgbalance chanlife ctxflow; do
	if ! printf '%s\n' "$lint_list" | grep -q "^$a "; then
		echo "edgepc-lint: analyzer '$a' missing from -list" >&2
		exit 1
	fi
done
go run ./cmd/edgepc-lint ./...

echo "== escape gate (hotpath heap escapes vs baseline; see DESIGN.md §7) =="
scripts/escape_gate.sh

echo "== go test -race ./internal/lint/... (analyzer engine) =="
go test -race ./internal/lint/...

echo "== go test -race (parallel kernels + workspace hot path + serving) =="
go test -race ./internal/tensor/... ./internal/parallel/... ./internal/morton/... ./internal/pipeline/... ./internal/nn/... ./internal/model/... ./internal/serve/... ./internal/loadgen/...

echo "== go test ./... =="
go test ./...

echo "== fuzz smoke (seed corpus only) =="
# Plain `go test` already runs every f.Add seed through the fuzz targets;
# this stage just pins the targets by name so a renamed/deleted one fails
# loudly instead of silently shrinking coverage.
go test -run '^Fuzz' ./internal/compress/ ./internal/dataset/ ./internal/nn/ ./internal/neighbor/ ./internal/serve/ ./internal/loadgen/

echo "== chaos smoke (fault injection under -race; see DESIGN.md §11, §15) =="
# The resilience layer's promises — panics isolated and quarantined, invalid
# input rejected at admission, Close never hung by a parked breaker, the
# degradation ladder stepping both ways, stalled workers detected and
# respawned, retries/hedges conserving the accounting under a stall storm —
# exercised under the race detector.
go test -race -run 'TestChaos|TestCircuitBreaker|TestCloseDoesNotWaitOutBreakerPark|TestLastResort|TestDegradation|TestLadder|TestAdmission|TestCorruptInjection|TestDelayAndStall|TestFleetChaos|TestStall|TestBreakerBackoffJitterPinned|TestRetry|TestHedge|TestRouterSurvivability' ./internal/serve/
go test -race -run 'TestSimLaunchesNoHedgeWhileShedding' ./internal/loadgen/
go test -run '^$' -fuzz '^FuzzSubmitFrame$' -fuzztime 5s ./internal/serve/
go test -run '^$' -fuzz '^FuzzLoadgenConfig$' -fuzztime 5s ./internal/loadgen/
go test -run '^$' -fuzz '^FuzzReadCheckpoint$' -fuzztime 5s ./internal/nn/

echo "== delivery-claim stress (formerly flaky; see DESIGN.md §15) =="
# Exactly one side claims each frame and counters move before the reply is
# sent; these three tests caught the two ways that used to break.
go test -race -run 'TestServeRaceStress$|TestStallWatchdogDetectsAndRespawns$|TestStallWithoutRebuildFailsBatchInPlace$' -count=50 ./internal/serve/

echo "== backend parity (golden suite under each compute backend) =="
# The two compute backends are a contract: pin the registry by name so a
# renamed/removed backend fails loudly, run the golden-logit suite (naive
# path, bit-exact fixtures) plus the cross-backend parity and property tests,
# and exercise the per-block parallel MatMul under the race detector.
backend_list=$(go run ./cmd/edgepc-bench -list-backends)
for b in naive blocked; do
	if ! printf '%s\n' "$backend_list" | grep -qx "$b"; then
		echo "backend parity: backend '$b' missing from -list-backends" >&2
		exit 1
	fi
done
go test -run 'TestGolden' ./internal/pipeline/
go test -race -run 'TestGoldenBackendParity|TestBackendNamesPinned|TestBuildRejectsUnknownBackend' ./internal/pipeline/
go test -race -run 'TestQuickBlockedMatMulMatchesNaive|TestBlockedBackendConcurrent|TestBackendRegistry|TestBackendValidationMatchesReference' ./internal/tensor/

echo "== bench smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkMatMulAT' -benchtime=1x -benchmem ./internal/tensor/

echo "== bench_fps smoke (quick clouds) =="
# The large-scale sampling bench must keep producing parseable curves; the
# quick run writes to throwaway paths so the committed full-scale
# BENCH_fps.json is never clobbered by CI.
OUT=.bench_fps_smoke.json RAW=.bench_fps_smoke.txt scripts/bench_fps.sh -quick >/dev/null
grep -q '"sampler": "bucketfps"' .bench_fps_smoke.json
rm -f .bench_fps_smoke.json .bench_fps_smoke.txt

echo "== bench_serve smoke (quick virtual window, run twice, diff counts) =="
# The fleet traffic harness promises bit-reproducibility: two same-seed runs
# must emit identical scenario count lines, and the report must carry the
# schema the experiment log points at.
OUT=.bench_serve_smoke.json RAW=.bench_serve_smoke.txt scripts/bench_serve.sh -quick >/dev/null
grep -q '"bench": "serve_fleet"' .bench_serve_smoke.json
grep -q '"crossover"' .bench_serve_smoke.json
grep -q '"fairness_jain"' .bench_serve_smoke.json
grep -q '"survivability"' .bench_serve_smoke.json
grep -q '"hedge_wins"' .bench_serve_smoke.json
grep -E '^(scenario|survivability) mult=' .bench_serve_smoke.txt >.bench_serve_counts1.txt
OUT=.bench_serve_smoke.json RAW=.bench_serve_smoke.txt scripts/bench_serve.sh -quick >/dev/null
grep -E '^(scenario|survivability) mult=' .bench_serve_smoke.txt >.bench_serve_counts2.txt
diff .bench_serve_counts1.txt .bench_serve_counts2.txt
rm -f .bench_serve_smoke.json .bench_serve_smoke.txt .bench_serve_counts1.txt .bench_serve_counts2.txt

echo "== allocs/op regression gate =="
# The zero-allocation hot path (DESIGN.md §6) must not regress: steady-state
# frame allocation counts are capped per benchmark. Raising a ceiling is a
# reviewed decision, not a drive-by.
bench_out=$(go test -run '^$' -bench 'BenchmarkPipelineFrameAllocs' -benchtime=1x -benchmem ./internal/pipeline/)
serve_out=$(go test -run '^$' -bench 'BenchmarkServeSteadyState' -benchtime=1x -benchmem ./internal/serve/)
printf '%s\n%s\n' "$bench_out" "$serve_out"
printf '%s\n%s\n' "$bench_out" "$serve_out" | awk '
	/^Benchmark/ {
		for (i = 1; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
		limit = -1
		if ($1 ~ /^BenchmarkPipelineFrameAllocsPointNetPP/) limit = 80
		if ($1 ~ /^BenchmarkPipelineFrameAllocsDGCNN/)      limit = 46
		if ($1 ~ /^BenchmarkServeSteadyState/)              limit = 80
		if (limit >= 0) {
			seen++
			if (allocs + 0 > limit) {
				printf "allocs gate: %s allocated %s/op, ceiling %d\n", $1, allocs, limit
				bad = 1
			}
		}
	}
	END {
		if (seen < 3) { printf "allocs gate: matched %d of 3 benchmarks\n", seen; exit 1 }
		exit bad
	}
'

echo "ci: all green"
