#!/usr/bin/env sh
# Guards the tracked benchmarks — the kernel cells (Gram, Mul, SymEigen,
# MonitorUpdate), the PR8 sketcher-family cells (FDUpdate,
# FDModelBuild, RSVDBuild), the ingest cells (IngestDecode, IngestPipeline,
# IngestCollectors), the PR6 tracing cells (TracedSketchUpdate at
# mode=base/off/on), the PR9 aggregator-merge cells (AggregatorMerge at
# l=64/128, both families) and the PR10 identification cells (Identify at
# m=64/256, k=1/8) — against performance regressions: re-runs each cell
# BENCHCHECK_COUNT times, takes the per-cell minimum (least-noise estimate),
# and fails when any cell is more than BENCHCHECK_TOLERANCE percent slower
# than the recorded median in BENCH_PR10.json (written by scripts/bench.sh on
# the reference host).
#
# The tracing cells additionally gate the disabled-tracing overhead: the
# mode=off cell (nil tracer threaded through the instrumented call site)
# must stay within BENCHCHECK_TRACE_TOLERANCE percent of mode=base (no
# trace calls at all), compared min-to-min within the same run so host
# speed cancels out.
#
# The scaling gate (PR7) compares cells within the same run, so it is
# host-speed independent but does need cores: 8-collector ingest must be
# >= BENCHCHECK_INGEST_SPEEDUP x single-collector throughput (only with
# >= 8 CPUs). Hosts with fewer cores print a skip line — the sweep still
# runs, guarding against overhead regressions via the plain tolerance gate
# above.
#
# The FD-retrain gate (PR8) is also within-run: the FD model build at m=256 (per-block 2l x 2l eigensolves) must beat the Jacobi full
# rebuild at the same m — Gram + SymEigen, both at m=256/workers=1 — by
# BENCHCHECK_FD_SPEEDUP x. This is the retrain-cost claim the FD family
# rides on; tiny runners (< 2 CPUs), where single-iteration cells are too
# noisy to trust a ratio, print a skip line instead.
#
# Environment:
#   BENCHCHECK_COUNT            runs per cell (default 3)
#   BENCHCHECK_TOLERANCE        allowed slowdown in percent (default 20)
#   BENCHCHECK_TRACE_TOLERANCE  allowed disabled-tracing overhead in percent
#                               (default 5, the PR6 acceptance bound)
#   BENCHCHECK_INGEST_SPEEDUP   required 8-vs-1-collector ingest speedup
#                               (default 4.0; needs >= 8 CPUs)
#   BENCHCHECK_FD_SPEEDUP       required FD-retrain-vs-Jacobi-rebuild speedup
#                               at m=256 (default 2.0; needs >= 2 CPUs)
#   BENCHCHECK_MERGE_FLOOR      minimum aggregator merge throughput in shard
#                               snapshots/s for the randproj cells (default
#                               500; each merge consumes 4 snapshots)
#   BENCHCHECK_MERGE_FLOOR_FD   same floor for the FD cells (default 5 —
#                               an FD merge re-compresses the union, so its
#                               unit cost is ~100x a randproj column union)
#   BENCHCHECK_IDENTIFY_FLOOR   minimum identifications/s for the worst-case
#                               Identify cell, m=256/k=8 (default 500; the
#                               reference host clears 7000/s — the floor
#                               catches an accidental O(m^2)-per-round
#                               selection loop, not host variance)
#   BENCHCHECK_SCALING=0        disable the scaling gates regardless of cores
#   SKIP_BENCHCHECK=1           skip entirely (e.g. on known-noisy hosts)
#
# Cells present in only one of {baseline, current run} are reported but do
# not fail the check, so adding or retiring a benchmark does not require a
# lockstep baseline refresh.
set -eu
cd "$(dirname "$0")/.."

if [ "${SKIP_BENCHCHECK:-0}" = "1" ]; then
    echo "benchcheck: skipped (SKIP_BENCHCHECK=1)"
    exit 0
fi
if [ ! -f BENCH_PR10.json ]; then
    echo "benchcheck: no BENCH_PR10.json baseline; run scripts/bench.sh first" >&2
    exit 1
fi

COUNT="${BENCHCHECK_COUNT:-3}"
TOLERANCE="${BENCHCHECK_TOLERANCE:-20}"
TRACE_TOLERANCE="${BENCHCHECK_TRACE_TOLERANCE:-5}"
INGEST_SPEEDUP="${BENCHCHECK_INGEST_SPEEDUP:-4.0}"
FD_SPEEDUP="${BENCHCHECK_FD_SPEEDUP:-2.0}"
MERGE_FLOOR="${BENCHCHECK_MERGE_FLOOR:-500}"
MERGE_FLOOR_FD="${BENCHCHECK_MERGE_FLOOR_FD:-5}"
IDENTIFY_FLOOR="${BENCHCHECK_IDENTIFY_FLOOR:-500}"
SCALING="${BENCHCHECK_SCALING:-1}"
NPROC="$(nproc 2>/dev/null || echo 1)"

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "benchcheck: $COUNT runs/cell, tolerance ${TOLERANCE}% vs BENCH_PR10.json, trace overhead <= ${TRACE_TOLERANCE}%"
go test . -run 'XXXnone' \
    -bench 'BenchmarkGram/|BenchmarkMul/|BenchmarkSymEigen/m=|BenchmarkMonitorUpdate/|BenchmarkFDUpdate/|BenchmarkFDModelBuild/|BenchmarkRSVDBuild/|BenchmarkIdentify/' \
    -benchtime 1x -count "$COUNT" > "$RAW"
# One ingest iteration is a single ~µs datagram and the shard queues
# buffer up to 1024 of them, so these cells measure 20000 iterations per
# run (matching scripts/bench.sh) to capture steady state.
go test ./internal/ingest -run 'XXXnone' \
    -bench 'BenchmarkIngestDecode$|BenchmarkIngestPipeline/|BenchmarkIngestCollectors/' \
    -benchtime 20000x -count "$COUNT" >> "$RAW"
# Tracing cells at 5000 iterations (one iteration is a ~130µs sketch
# update), matching scripts/bench.sh. These run as COUNT separate
# single-count invocations rather than one -count=COUNT run: go test runs
# all COUNT measurements of one sub-benchmark before the next, so host
# drift (thermal, noisy neighbours) over the run would bias whichever mode
# runs later and break the off-vs-base comparison below. Interleaving puts
# every mode in each invocation, so drift cancels out of the gate.
i=0
while [ "$i" -lt "$COUNT" ]; do
    go test . -run 'XXXnone' \
        -bench 'BenchmarkTracedSketchUpdate/' \
        -benchtime 5000x >> "$RAW"
    i=$((i + 1))
done
# Aggregator merge cells at 20 iterations (one FD merge is ~50-100ms),
# matching scripts/bench.sh.
go test ./internal/agg -run 'XXXnone' \
    -bench 'BenchmarkAggregatorMerge/' \
    -benchtime 20x -count "$COUNT" >> "$RAW"

python3 - "$RAW" "$TOLERANCE" "$TRACE_TOLERANCE" \
    "$INGEST_SPEEDUP" "$SCALING" "$NPROC" "$FD_SPEEDUP" \
    "$MERGE_FLOOR" "$MERGE_FLOOR_FD" "$IDENTIFY_FLOOR" <<'EOF'
import json, re, sys

kernel = re.compile(
    r'^Benchmark(Gram|SymEigen|MonitorUpdate|FDUpdate|FDModelBuild|RSVDBuild)/'
    r'(?:m|flows)=(\d+)/workers=(\d+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
mul = re.compile(
    r'^BenchmarkMul/shape=\d+x(\d+)x\d+/workers=(\d+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
ingest = re.compile(
    r'^Benchmark(IngestDecode|IngestPipeline|IngestCollectors)'
    r'(?:/(?:shards|collectors)=(\d+))?(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
traced = re.compile(
    r'^BenchmarkTracedSketchUpdate/(mode=\w+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
merge = re.compile(
    r'^BenchmarkAggregatorMerge/family=(\w+)/l=(\d+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op')
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

baseline = {
    (r["op"], r["m"], r["workers"]): r["ns_op"]
    for r in json.load(open("BENCH_PR10.json"))
}
tolerance = float(sys.argv[2])
trace_tolerance = float(sys.argv[3])
ingest_speedup = float(sys.argv[4])
scaling = sys.argv[5] == "1"
nproc = int(sys.argv[6])
fd_speedup = float(sys.argv[7])
merge_floor = float(sys.argv[8])
merge_floor_fd = float(sys.argv[9])
identify_floor = float(sys.argv[10])

failed = False
for key in sorted(set(cells) | set(baseline)):
    name = "%s/m=%d/workers=%d" % key
    if key not in baseline:
        print("benchcheck: %-34s new cell, no baseline (ok)" % name)
        continue
    if key not in cells:
        print("benchcheck: %-34s baseline cell did not run (ok)" % name)
        continue
    best, base = min(cells[key]), baseline[key]
    delta = 100.0 * (best - base) / base
    verdict = "ok"
    if delta > tolerance:
        verdict = "REGRESSION"
        failed = True
    print("benchcheck: %-34s %12.0f ns/op vs %12.0f baseline (%+6.1f%%) %s"
          % (name, best, base, delta, verdict))

# Disabled-tracing overhead: off vs base within THIS run, so the check is
# host-independent. min-of-COUNT on both sides suppresses scheduler noise.
untraced = cells.get(("TracedSketchUpdate/mode=base", 0, 1))
disabled = cells.get(("TracedSketchUpdate/mode=off", 0, 1))
if untraced and disabled:
    overhead = 100.0 * (min(disabled) - min(untraced)) / min(untraced)
    verdict = "ok"
    if overhead > trace_tolerance:
        verdict = "REGRESSION"
        failed = True
    print("benchcheck: disabled-tracing overhead (off vs base) %+6.1f%% "
          "(bound %g%%) %s" % (overhead, trace_tolerance, verdict))
else:
    print("benchcheck: disabled-tracing overhead not measured "
          "(traced cells missing)")

# Scaling gate: a within-run ratio, so host speed cancels; core count does
# not, hence the nproc condition. ns/op is inversely proportional to
# throughput (fixed work per op), so speedup = ns1 / nsN.
def gate(label, slow_key, fast_key, need_cores, required):
    global failed
    if not scaling:
        print("benchcheck: %s skipped (BENCHCHECK_SCALING=0)" % label)
        return
    if nproc < need_cores:
        print("benchcheck: %s skipped (host has %d cores, need >= %d)"
              % (label, nproc, need_cores))
        return
    slow, fast = cells.get(slow_key), cells.get(fast_key)
    if not slow or not fast:
        print("benchcheck: %s not measured (cells missing)" % label)
        return
    speedup = min(slow) / min(fast)
    verdict = "ok"
    if speedup < required:
        verdict = "FAILED"
        failed = True
    print("benchcheck: %s %.2fx (required %.2fx) %s"
          % (label, speedup, required, verdict))

gate("ingest scaling 8 vs 1 collectors",
     ("IngestCollectors", 0, 1), ("IngestCollectors", 0, 8), 8, ingest_speedup)

# FD-retrain gate (PR8): the FD model build at m=256 must beat
# the Jacobi full rebuild at the same m, composed within this run from its
# two tracked kernels (Gram over the 200x256 sketch matrix + the 256x256
# eigensolve). Within-run and serial on both sides, so host speed and core
# count cancel; tiny runners still skip — their 1x-benchtime cells are
# too noisy for a trustworthy ratio.
label = "FD retrain vs Jacobi rebuild at m=256"
if not scaling:
    print("benchcheck: %s skipped (BENCHCHECK_SCALING=0)" % label)
elif nproc < 2:
    print("benchcheck: %s skipped (host has %d cores, need >= 2)"
          % (label, nproc))
else:
    gram = cells.get(("Gram", 256, 1))
    eigen = cells.get(("SymEigen", 256, 1))
    fd = cells.get(("FDModelBuild", 256, 1))
    if not gram or not eigen or not fd:
        print("benchcheck: %s not measured (cells missing)" % label)
    else:
        speedup = (min(gram) + min(eigen)) / min(fd)
        verdict = "ok"
        if speedup < fd_speedup:
            verdict = "FAILED"
            failed = True
        print("benchcheck: %s %.2fx (required %.2fx) %s"
              % (label, speedup, fd_speedup, verdict))

# Merge-throughput floor (PR9): each AggregatorMerge op consumes 4 shard
# snapshots, so throughput = 4e9 / ns_op. Absolute floors (not within-run
# ratios) set far below the reference host's numbers — they catch
# catastrophic slowdowns (an accidental O(m^2) in the union path, FD merge
# re-running per row) on any host while the 20% tolerance above guards the
# fine-grained budget on calibrated ones.
for (op, l, _w), v in sorted(cells.items()):
    if not op.startswith("AggregatorMerge/"):
        continue
    floor = merge_floor_fd if op.endswith("=fd") else merge_floor
    sps = 4e9 / min(v)
    verdict = "ok"
    if sps < floor:
        verdict = "FAILED"
        failed = True
    print("benchcheck: merge throughput %-26s %10.1f sketches/s "
          "(floor %g) %s" % ("%s/l=%d" % (op, l), sps, floor, verdict))

# Identification-latency floor (PR10): the worst-case pursuit cell
# (m=256 flows, culprit budget k=8) must sustain identify_floor
# identifications per second. Like the merge floors this is an absolute
# bound set far below the reference host — it catches algorithmic blowups
# in the selection loop, not host variance.
ident = cells.get(("Identify", 256, 8))
if ident:
    ips = 1e9 / min(ident)
    verdict = "ok"
    if ips < identify_floor:
        verdict = "FAILED"
        failed = True
    print("benchcheck: identify throughput m=256/k=8 %10.1f identifications/s "
          "(floor %g) %s" % (ips, identify_floor, verdict))
else:
    print("benchcheck: identify throughput not measured (cell missing)")

if failed:
    print("benchcheck: FAILED (>%g%% regression or scaling gate miss; rerun "
          "scripts/bench.sh to refresh the baseline if the change is "
          "intentional)" % tolerance)
    sys.exit(1)
print("benchcheck: all cells within %g%% of baseline" % tolerance)
EOF
