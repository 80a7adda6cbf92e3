#!/usr/bin/env sh
# Runs the engine kernel benchmarks and rewrites BENCH_engine.json so every
# PR leaves a perf trajectory to compare against. The "baseline_commit" /
# "baseline" keys of the existing file (the pre-morsel-engine numbers cited
# by README and docs/ARCHITECTURE.md) are carried over verbatim; diff the
# "benchmarks" arrays across git history for the trajectory.
set -e
cd "$(dirname "$0")/.."

out=BENCH_engine.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Preserve the baseline blocks (everything from `"baseline_commit"` up to
# the `"benchmarks"` array: the pre-morsel-engine numbers of PR 1 and the
# pre-interned-CSR compile/load numbers of PR 2) before overwriting.
base=""
if [ -f "$out" ]; then
	base=$(awk '/^  "baseline_commit"/ { f = 1 } /^  "benchmarks": \[/ { exit } f { print }' "$out")
fi

go test -run '^$' \
	-bench 'BenchmarkKernelQ3|BenchmarkKernelQ4Count|BenchmarkSharedPoolQ3|BenchmarkShardedScatterQ3|BenchmarkFig8SingleThread/HGMatch|BenchmarkFig11Scheduling|BenchmarkAblationDeque|BenchmarkPublicAPI|BenchmarkOnlineIngest' \
	-benchmem -count=3 -benchtime=50x . | tee "$tmp"

# The durability tax on the serving path: one 100-record ingest request
# through the full hgserve handler per op (decode, apply, journal, fsync,
# publish) across WAL sync policies, with "nowal" as the in-memory
# baseline. The robustness PR's bar: batch within 2x of nowal.
go test -run '^$' \
	-bench 'BenchmarkWALIngest' \
	-benchmem -count=3 -benchtime=50x ./internal/server | tee -a "$tmp"

# The set-kernel ablation (array vs bitmap vs hybrid containers across
# density/k) runs at a fixed iteration count high enough for its ns-scale
# ops; it documents where the hybrid posting containers win and where the
# adaptive threshold falls back to arrays.
go test -run '^$' \
	-bench 'BenchmarkAblationSetops' \
	-benchmem -count=1 -benchtime=10000x . | tee -a "$tmp"

# The compile, load and mapped-open benches run at the default benchtime:
# their ops are microseconds-to-milliseconds, so 50 iterations would be
# too noisy to compare against the committed compile_baseline (which was
# recorded at the default benchtime too). BenchmarkMappedOpen is the
# tiered-residency bar: MmapAttach must stay >=10x under the heap loads,
# and SteadyStateHeap's heap/mapped ratio >=5x.
go test -run '^$' \
	-bench 'BenchmarkCompile$|BenchmarkLoadFile|BenchmarkMappedOpen' \
	-benchmem -count=3 . | tee -a "$tmp"

# Where it ran: a scaling row (t=4 vs t=1) means nothing without the core
# count. GOMAXPROCS is what the benchmarks saw (the "-N" go test appends to
# benchmark names; absent when it is 1), the CPU model is go test's "cpu:" line.
nproc=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
gomaxprocs=$(awk '/^Benchmark/ { n = split($1, a, "-"); print (n > 1 && a[n] ~ /^[0-9]+$/) ? a[n] : 1; exit }' "$tmp")
cpu=$(sed -n 's/^cpu: //p' "$tmp" | head -n 1)

{
	printf '{\n'
	printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version)"
	printf '  "machine": {"nproc": %s, "gomaxprocs": %s, "cpu": "%s"},\n' "$nproc" "$gomaxprocs" "$cpu"
	printf '  "workload": "q3 kernel: SB scale 0.4, best-of-8 q3 query, ~100k embeddings",\n'
	if [ -n "$base" ]; then
		printf '%s\n' "$base"
	fi
	printf '  "benchmarks": [\n'
	grep -E '^Benchmark' "$tmp" | awk '{
		gsub(/\\/, "\\\\"); gsub(/"/, "\\\"");
		# collapse runs of whitespace so the lines diff cleanly
		gsub(/[ \t]+/, " ");
		printf "%s    \"%s\"", (NR > 1 ? ",\n" : ""), $0
	} END { print "" }'
	printf '  ]\n}\n'
} > "$out"

echo "wrote $out"
