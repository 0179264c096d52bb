#!/usr/bin/env bash
# Runs the tracked benchmark cells — the kernel cells (Gram, Mul, SymEigen,
# MonitorUpdate; serial, recorded under their historical "workers=1" names),
# the PR8 sketcher-family cells (FDUpdate, FDModelBuild, RSVDBuild at
# m=64/256), the ingest
# benchmarks (IngestDecode, IngestPipeline at 1/2/4 shards, IngestCollectors
# at 1/2/4/8 concurrent producers), the PR6 tracing cells
# (TracedSketchUpdate at mode=base/off/on) and the PR9 aggregator-merge
# cells (AggregatorMerge at l=64/128, both sketcher families) and the PR10
# identification cells (Identify at m=64/256, culprit budget k=1/8) — and
# writes BENCH_PR10.json at the repo root: one record per cell with the
# median ns/op over COUNT runs.
#
# Usage: scripts/bench.sh [-count N] [-benchtime D] [-cpuprofile]
#
# -benchtime applies to the kernel cells (whose single iterations are large
# enough to time); the ingest cells always run 20000 iterations per
# measurement — one iteration is a single ~µs datagram, and the run must be
# long enough to amortize the shard queues' capacity (up to 1024 buffered
# datagrams) so the cell reflects steady-state producer↔shard coupling, not
# just enqueue cost.
#
# -cpuprofile switches to a short profile-capture mode: each benchmark group
# runs once (count=1) with -cpuprofile, writing pprof files and test
# binaries under ci-artifacts/bench-profiles/ for artifact upload (the same
# pattern as the chaos flight-recorder JSONL). No JSON baseline is written
# in this mode — profiles and medians come from separate runs by design.
#
# The absolute numbers and the ingest collector speedup depend on the host's
# core count; run `nproc` alongside and record it (EXPERIMENTS.md does). On a
# single-core host the collector sweep measures overhead, not speedup — see
# the PR7 section of EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT=3
BENCHTIME=1x
PROFILE=0
while [ $# -gt 0 ]; do
  case "$1" in
    -count) COUNT="$2"; shift 2 ;;
    -benchtime) BENCHTIME="$2"; shift 2 ;;
    -cpuprofile) PROFILE=1; shift ;;
    *) echo "unknown flag $1" >&2; exit 2 ;;
  esac
done

KERNEL_BENCH='BenchmarkGram/|BenchmarkMul/|BenchmarkSymEigen/m=|BenchmarkMonitorUpdate/|BenchmarkFDUpdate/|BenchmarkFDModelBuild/|BenchmarkRSVDBuild/|BenchmarkIdentify/'
INGEST_BENCH='BenchmarkIngestDecode$|BenchmarkIngestPipeline/|BenchmarkIngestCollectors/'
MERGE_BENCH='BenchmarkAggregatorMerge/'

if [ "$PROFILE" = "1" ]; then
  PROFDIR=ci-artifacts/bench-profiles
  mkdir -p "$PROFDIR"
  echo "capturing CPU profiles into $PROFDIR (benchtime=$BENCHTIME)..." >&2
  go test . -run 'XXX' -bench "$KERNEL_BENCH" -benchtime "$BENCHTIME" \
    -cpuprofile "$PROFDIR/kernel.pprof" -o "$PROFDIR/kernel.test" >&2
  go test ./internal/ingest -run 'XXX' -bench "$INGEST_BENCH" -benchtime 20000x \
    -cpuprofile "$PROFDIR/ingest.pprof" -o "$PROFDIR/ingest.test" >&2
  go test . -run 'XXX' -bench 'BenchmarkTracedSketchUpdate/' -benchtime 5000x \
    -cpuprofile "$PROFDIR/traced.pprof" -o "$PROFDIR/traced.test" >&2
  go test ./internal/agg -run 'XXX' -bench "$MERGE_BENCH" -benchtime 20x \
    -cpuprofile "$PROFDIR/merge.pprof" -o "$PROFDIR/merge.test" >&2
  echo "wrote $(ls "$PROFDIR"/*.pprof | wc -l) profiles to $PROFDIR" >&2
  exit 0
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "running kernel benchmarks (count=$COUNT benchtime=$BENCHTIME, GOMAXPROCS=$(nproc))..." >&2
go test . -run 'XXX' \
  -bench "$KERNEL_BENCH" \
  -benchtime "$BENCHTIME" -count "$COUNT" | tee "$RAW" >&2

echo "running ingest benchmarks (count=$COUNT benchtime=20000x)..." >&2
go test ./internal/ingest -run 'XXX' \
  -bench "$INGEST_BENCH" \
  -benchtime 20000x -count "$COUNT" | tee -a "$RAW" >&2

# One traced iteration is a single ~130µs sketch update; 5000 iterations per
# measurement keeps the base/off/on comparison above the timer noise floor.
# COUNT separate invocations (not one -count=COUNT run) interleave the three
# modes in time, so host drift over the run can't bias the later modes — the
# off-vs-base overhead gate in benchcheck.sh depends on that comparison
# staying honest.
echo "running tracing benchmarks ($COUNT interleaved runs, benchtime=5000x)..." >&2
for _ in $(seq "$COUNT"); do
  go test . -run 'XXX' \
    -bench 'BenchmarkTracedSketchUpdate/' \
    -benchtime 5000x | tee -a "$RAW" >&2
done

# One merge iteration combines 4 shard snapshots; the FD cells rebuild a
# fresh FD per merge (~50-100ms each), so 20 iterations per measurement is
# already seconds of work — enough to dominate timer noise without
# stretching CI.
echo "running aggregator merge benchmarks (count=$COUNT benchtime=20x)..." >&2
go test ./internal/agg -run 'XXX' \
  -bench "$MERGE_BENCH" \
  -benchtime 20x -count "$COUNT" | tee -a "$RAW" >&2

python3 - "$RAW" <<'EOF' > BENCH_PR10.json
import json, re, statistics, sys

# Benchmark lines look like (the -N GOMAXPROCS suffix is absent when
# GOMAXPROCS is 1):
#   BenchmarkGram/m=256/workers=1-8            100   1234567 ns/op
#   BenchmarkMul/shape=200x1024x256/workers=1   50   2345678 ns/op
#   BenchmarkIngestCollectors/collectors=8-8  1000      9107 ns/op ...
kernel = re.compile(
    r'^Benchmark(Gram|SymEigen|MonitorUpdate|FDUpdate|FDModelBuild|RSVDBuild)/'
    r'(?:m|flows)=(\d+)/workers=(\d+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
# Mul carries its shape in the op name; m records the inner dimension.
mul = re.compile(
    r'^BenchmarkMul/shape=\d+x(\d+)x\d+/workers=(\d+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
# Ingest cells reuse the same record shape: m=0 (no size sweep), workers =
# shard/collector count (1 for the decode microbenchmark).
ingest = re.compile(
    r'^Benchmark(IngestDecode|IngestPipeline|IngestCollectors)'
    r'(?:/(?:shards|collectors)=(\d+))?(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
# Tracing cells: the op carries the mode (base = raw update, off = nil
# tracer through the call site, on = recording); m=0, workers=1.
traced = re.compile(
    r'^BenchmarkTracedSketchUpdate/(mode=\w+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
# Aggregator merge cells (PR9): the op carries the family, m records the
# shared sketch parameter l, workers=1 (serveFetch's merge cost per fetch).
merge = re.compile(
    r'^BenchmarkAggregatorMerge/family=(\w+)/l=(\d+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
# Identification cells (PR10): m is the flow count, the workers slot holds
# the culprit budget k (each cell is a serial pursuit).
identify = re.compile(
    r'^BenchmarkIdentify/m=(\d+)/k=(\d+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
cells = {}
for line in open(sys.argv[1]):
    m = kernel.match(line)
    if m:
        key = (m.group(1), int(m.group(2)), int(m.group(3)))
        cells.setdefault(key, []).append(float(m.group(4)))
        continue
    m = mul.match(line)
    if m:
        key = ("Mul", int(m.group(1)), int(m.group(2)))
        cells.setdefault(key, []).append(float(m.group(3)))
        continue
    m = ingest.match(line)
    if m:
        key = (m.group(1), 0, int(m.group(2) or 1))
        cells.setdefault(key, []).append(float(m.group(3)))
        continue
    m = traced.match(line)
    if m:
        key = ("TracedSketchUpdate/" + m.group(1), 0, 1)
        cells.setdefault(key, []).append(float(m.group(2)))
        continue
    m = merge.match(line)
    if m:
        key = ("AggregatorMerge/family=" + m.group(1), int(m.group(2)), 1)
        cells.setdefault(key, []).append(float(m.group(3)))
        continue
    m = identify.match(line)
    if m:
        key = ("Identify", int(m.group(1)), int(m.group(2)))
        cells.setdefault(key, []).append(float(m.group(3)))

records = [
    {"op": op, "m": size, "workers": w,
     "ns_op": statistics.median(v), "runs": len(v)}
    for (op, size, w), v in sorted(cells.items())
]
json.dump(records, sys.stdout, indent=2)
print()
EOF

echo "wrote BENCH_PR10.json ($(python3 -c 'import json;print(len(json.load(open("BENCH_PR10.json"))))') cells)" >&2
