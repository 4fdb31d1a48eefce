#!/usr/bin/env sh
# Benchmark the two tensor compute backends (naive / blocked) on the Fig. 3
# hot path and emit a machine-readable summary to BENCH_backend.json at
# the repository root: one record per benchmark with ns/op, bytes/op and
# allocs/op. Two views per backend:
#
#   BenchmarkBackendMatMul*        the bare 2048x128 · 128x128 matmul kernel
#   BenchmarkPipelineFrameBackend* a full PointNet++ segmentation frame
#
# The blocked backend must show a measured ns/op win over naive on the bare
# kernel; the committed BENCH_backend.json records the reference run.
#
# Usage: scripts/bench_backend.sh [benchtime]
#   benchtime  go test -benchtime value, default 10x

set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-10x}"
RAW=BENCH_backend.txt
OUT=BENCH_backend.json

go test -run '^$' -benchmem -benchtime="$BENCHTIME" \
	-bench 'BenchmarkBackendMatMul' ./internal/tensor/ >"$RAW"
go test -run '^$' -benchmem -benchtime="$BENCHTIME" \
	-bench 'BenchmarkPipelineFrameBackend' ./internal/pipeline/ >>"$RAW"

# Benchmark lines look like:
#   BenchmarkName-8   10   123456 ns/op   7890 B/op   12 allocs/op
# (the -N GOMAXPROCS suffix is absent on single-core machines).
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (!first) printf ",\n"
	first = 0
	printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
}
END { print "\n]" }
' "$RAW" >"$OUT"

echo "wrote $OUT:"
cat "$OUT"
