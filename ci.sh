#!/usr/bin/env sh
# Tier-1+ check: everything CI (or a reviewer) needs to trust a change.
#   ./ci.sh    fmt + vet (linux, darwin, linux/arm64) + build + tests + race + eval
#              goldens + fuzz and bench smokes
#
# Environment: CHAOS_FLIGHT_DIR overrides where the chaos e2e's
# flight-recorder JSONL artifacts land (default ci-artifacts/chaos-flight).
set -eu

cd "$(dirname "$0")"

STEP_START=0
step() {
    STEP_START=$(date +%s)
    echo "== $* =="
}
step_done() {
    echo "   (step took $(( $(date +%s) - STEP_START ))s)"
}

step "gofmt"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
step_done

# Vet under both first-class GOOS targets: no cgo; amd64 kernels are Go
# assembly with a pure-Go fallback, so a darwin-only breakage (build tags,
# syscall drift) should fail CI on linux, and an arm64 vet checks the build
# that has no assembly (internal/mat's rowops_other.go).
step "go vet (GOOS=linux)"
GOOS=linux go vet ./...
step_done

step "go vet (GOOS=darwin)"
GOOS=darwin go vet ./...
step_done

step "go vet (GOOS=linux GOARCH=arm64, the build without assembly)"
GOOS=linux GOARCH=arm64 go vet ./...
step_done

# The row kernels and their Go loops round every product before they add it
# (DESIGN §3.7), so sketches and models keep their bits on every GOARCH and
# CPU: no fused multiply-add in the assembly, and none that the arm64 compiler
# (which fuses x*y + z unless the product is converted) attributes to
# internal/mat/rowops.go, where the Go loops live, to internal/mat/kernels.go,
# whose Mul and TMulInto form the Frequent Directions shrink's projection, or
# to internal/stats/normal.go, whose Horner chains give the Q-threshold's c_α
# (UpperQuantile), to internal/core/detector.go, whose distance and energy
# sums decide an alarm at the margin, to internal/vh/vh.go, whose variance
# and prior sketch feed the model, to internal/vh/sums.go, which recovers a
# column's projection sums to send them or apply a delta to them, to
# internal/transport/wire.go, whose round(μ·R′_k) rebuilds every projection
# sum a pull carries, or to internal/sketch/delta.go, whose Applier slides
# them to apply a delta pull.
# Each -S listing must show its file at all, or the check would pass on
# nothing.
step "no fused multiply-add (internal/**/*.s; GOARCH=arm64 rowops.go, kernels.go, normal.go, detector.go, vh.go, sums.go, wire.go and delta.go)"
FUSED=$(find internal -name '*.s' -exec grep -HnE 'VF(N)?M(ADD|SUB)' {} + || true)
if [ -n "$FUSED" ]; then
    echo "fused multiply-add in the assembly:" >&2
    echo "$FUSED" >&2
    exit 1
fi
no_fused_arm64() {
    LISTING=$(GOOS=linux GOARCH=arm64 go build -gcflags=-S "./internal/$1" 2>&1 | grep -E "/$2:[0-9]+\)" || true)
    if [ -z "$LISTING" ]; then
        echo "the arm64 -S listing of internal/$1 shows no $2 line" >&2
        exit 1
    fi
    FUSED=$(echo "$LISTING" | grep -E '[[:space:]]F(N)?M(ADD|SUB)[DS][[:space:]]' || true)
    if [ -n "$FUSED" ]; then
        echo "the arm64 build fuses a multiply-add in internal/$1/$2:" >&2
        echo "$FUSED" >&2
        exit 1
    fi
}
no_fused_arm64 mat rowops.go
no_fused_arm64 mat kernels.go
no_fused_arm64 stats normal.go
no_fused_arm64 core detector.go
no_fused_arm64 vh vh.go
no_fused_arm64 vh sums.go
no_fused_arm64 transport wire.go
no_fused_arm64 sketch delta.go
step_done

step "go build"
go build ./...
GOOS=darwin go build ./...
step_done

# The wire is one binary frame per message (internal/transport/wire.go); gob
# may stand in for an earlier build's peer in a test, never in the program.
step "no encoding/gob outside tests"
GOB=$(go list -f '{{.ImportPath}} {{.Imports}}' ./... | grep -w 'encoding/gob' | cut -d' ' -f1 || true)
if [ -n "$GOB" ]; then
    echo "encoding/gob imported by non-test code in:" >&2
    echo "$GOB" >&2
    exit 1
fi
step_done

# The line ceiling (ROADMAP AB): effective non-test Go lines outside bench/,
# i.e. lines that are neither blank nor start with //, must equal the number
# in LINE_CEILING. It is a ratchet: a change that deletes code writes the new
# count there, so no slack is left for a later change to grow back into; one
# that raises it names in CHANGES.md why the added lines are worth it.
step "line ceiling (non-test Go lines outside bench/ against LINE_CEILING)"
LINES=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
    xargs -0 cat | grep -v '^[[:space:]]*$' | grep -cv '^[[:space:]]*//')
CEILING=$(cat LINE_CEILING)
if [ "$LINES" -ne "$CEILING" ]; then
    echo "$LINES effective non-test Go lines, but LINE_CEILING says $CEILING; write $LINES to LINE_CEILING" >&2
    exit 1
fi
echo "   $LINES effective non-test Go lines, ceiling $CEILING"
step_done

# The document ceiling (ROADMAP AF): README.md, DESIGN.md and EXPERIMENTS.md
# must each be exactly as many bytes as DOC_CEILING says, one "file bytes"
# line each. Like LINE_CEILING it is a ratchet that prints the number to
# write: a change that grows a document says in CHANGES.md why, and one that
# shrinks it lowers the ceiling, so text is replaced in place rather than
# added beside the old.
step "document ceiling (README.md, DESIGN.md, EXPERIMENTS.md bytes against DOC_CEILING)"
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    bytes=$(wc -c < "$doc" | tr -d ' ')
    ceiling=$(awk -v doc="$doc" '$1 == doc { print $2 }' DOC_CEILING)
    if [ "$bytes" != "$ceiling" ]; then
        echo "$doc is $bytes bytes, but DOC_CEILING says '$ceiling'; write \"$doc $bytes\" in DOC_CEILING" >&2
        exit 1
    fi
    echo "   $doc: $bytes bytes, ceiling $ceiling"
done
step_done

step "go test"
go test ./...
step_done

# bench/ is its own module (it imports this tree through a replace), so the
# root ./... patterns above neither compile nor test it. Its smoke test
# deploys all four BENCHMARK.json topologies on loopback and checks every
# decision against the staged reference, which is also what gates a change
# to the packages it imports (noc, agg, monitor, ingest, transport).
step "bench module (go -C bench vet + smoke test)"
go -C bench vet ./... && go -C bench test .
step_done

# Whole-tree race pass. This replaces the hand-maintained package lists that
# accumulated over PRs 2-7 (transport/monitor/noc/obs/faults/ingest/trace,
# then the ingest e2e cmds, then oracle): every new concurrent package — the
# PR8 sketcher families included — is covered the day it lands instead of
# waiting for someone to remember the list. The differential-validation
# (oracle) and live-ingestion e2e suites ride along; their scenarios are
# seeded, so a failure here is a reproducible bug, not flake. EXPERIMENTS.md
# records the timing delta vs the old three-step split.
#
# It is also the one race run of the chaos e2e suite (TestChaos*: fault-
# injected NOC/monitor deployments, the trace-lineage e2e, the aggregator
# failover), the degraded-fill rule (TestDegraded*) and the federated
# differential e2e (TestFederated*: flat and 3-aggregator topologies must
# make byte-identical decisions and name identical culprits), where the
# retry, breaker and reconnect goroutines actually contend. CHAOS_FLIGHT_DIR
# redirects the chaos suite's flight-recorder JSONL to a kept directory; on
# failure the audit records are dumped so the workflow can collect them as
# artifacts.
step "go test -race ./..."
CHAOS_FLIGHT_DIR="${CHAOS_FLIGHT_DIR:-$(pwd)/ci-artifacts/chaos-flight}"
export CHAOS_FLIGHT_DIR
mkdir -p "$CHAOS_FLIGHT_DIR"
rm -f "$CHAOS_FLIGHT_DIR"/*.jsonl
if ! go test -race ./...; then
    echo "go test -race FAILED; chaos flight-recorder JSONL from $CHAOS_FLIGHT_DIR:" >&2
    for f in "$CHAOS_FLIGHT_DIR"/*.jsonl; do
        [ -f "$f" ] || continue
        echo "--- $f ---" >&2
        cat "$f" >&2
    done
    exit 1
fi
unset CHAOS_FLIGHT_DIR
step_done

# Overlapping upstream pulls at one aggregator are merged into, and sent
# from, the one response it keeps (agg.Service.serveFetch): ten race runs of
# the test that overlaps them.
step "go test -race -count=10 (overlapping pulls at one aggregator)"
go test -race -count=10 -run '^TestOverlappingPullsShareTheKeptResponse$' ./internal/agg
step_done

# A Downstream reuses its pull rounds (tier.Downstream.round: the response
# channel, the awaited set and the timer, drained when a round retires): ten
# race runs of the tests that pull back to back, at once, and past a round
# that timed out.
step "go test -race -count=10 (reused pull rounds)"
go test -race -count=10 -run '^(TestPullRoundsAreReused|TestLateAnswerNeverReachesTheNextPull|TestRetireDrainsAnswersRoutedToTheRound|TestOverlappingPullsTakeTheirOwnRounds)$' ./internal/tier
step_done

# Identification-quality gate (PR10): the anomography suite replays five
# labeled attack scenarios over a synthetic Abilene-like week (m=81 flows)
# and scores the culprits each online family names against the injected
# ground truth. Both randproj and fd must clear precision@3 >= 0.8 and
# recall >= 0.7 or the eval exits non-zero. The offline PCP comparator row
# is informational (printed, not gated). ~4s; fully seeded, so a failure
# is a real quality regression, not flake.
step "identification quality gate (abilene-eval -identify)"
EVAL_TMP=$(mktemp -d)
trap 'rm -rf "$EVAL_TMP"' EXIT
go build -o "$EVAL_TMP/abilene-eval" ./cmd/abilene-eval
"$EVAL_TMP/abilene-eval" -identify -identify-min-p3 0.8 -identify-min-recall 0.7
step_done

# Evaluation goldens: every abilene-eval mode prints deterministic stdout, and
# cmd/abilene-eval's TestGoldenOutputs holds the sub-second modes to the byte.
# The three multi-second ones (-oracle and the 1-minute sweeps, ~3 + 2 + 5 s)
# are compared here instead, once and outside -race, against goldens in the
# same testdata/ directory (regenerate all nine with
# `go test ./cmd/abilene-eval -run TestGoldenOutputs -update`). A golden's
# first line names the architecture that recorded it — fused multiply-adds
# print different digits elsewhere — so another architecture skips.
step "evaluation goldens (abilene-eval -oracle, -figure 8, -figure 9)"
eval_golden() {
    golden="cmd/abilene-eval/testdata/$1.golden"
    shift
    if [ "$(head -n 1 "$golden")" != "# GOARCH $(go env GOARCH)" ]; then
        echo "   $golden: recorded on another architecture, skipped"
        return 0
    fi
    tail -n +2 "$golden" > "$EVAL_TMP/want"
    "$EVAL_TMP/abilene-eval" "$@" > "$EVAL_TMP/got"
    if ! cmp -s "$EVAL_TMP/want" "$EVAL_TMP/got"; then
        echo "abilene-eval $* differs from $golden; first difference (< golden, > now):" >&2
        diff "$EVAL_TMP/want" "$EVAL_TMP/got" | head -n 4 >&2
        exit 1
    fi
}
eval_golden oracle -oracle
eval_golden fig8 -figure 8
eval_golden fig9 -figure 9
step_done

# On amd64 the math package takes fused multiply-add paths when the CPU has
# FMA (math.Exp's, for one), so a result that reads them differs between CPUs.
# The pinned ±1 projection rows, the goldens TestGoldenOutputs holds and
# -figure 8 must come out the same with FMA switched off.
step "same bits without FMA (GODEBUG=cpu.fma=off: pinned rows, eval goldens)"
if [ "$(go env GOARCH)" = amd64 ]; then
    export GODEBUG=cpu.fma=off
    go test -count=1 -run '^TestSignRowsPinned$' ./internal/randproj
    go test -count=1 -run '^TestGoldenOutputs$' ./cmd/abilene-eval
    eval_golden fig8 -figure 8
    unset GODEBUG
else
    echo "   GOARCH $(go env GOARCH): cpu.fma is an amd64 switch, skipped"
fi
step_done

# The example deployment in both topologies and both sketcher families
# (~0.5 s each), plus the randproj -ingest path (NetFlow v5 through one ingest
# pipeline per monitor) in both topologies. Every run must print its NOC
# summary and detection lines. Sketch linearity makes the aggregator tier
# transparent to randproj, and the ingest path re-aggregates the same rows,
# so its federated and both ingest lines must be the direct flat run's; FD's
# per-shard merges depend on which monitors share an aggregator (see the
# example's header), so its two runs are not compared.
step "example deployment: flat, federated and ingest agree (examples/distributed -aggs 0, -aggs 3; -ingest; -sketcher fd)"
go build -o "$EVAL_TMP/distributed" ./examples/distributed
example() {
    out="$EVAL_TMP/$1"
    shift
    "$EVAL_TMP/distributed" "$@" | grep -E '^(NOC|detection):' > "$out"
    if [ "$(grep -c '^NOC:' "$out")" -ne 1 ] || [ "$(grep -c '^detection:' "$out")" -ne 1 ]; then
        echo "examples/distributed $* printed no summary" >&2
        exit 1
    fi
}
for aggs in 0 3; do
    example "randproj-aggs$aggs" -sketcher randproj -aggs "$aggs"
    example "fd-aggs$aggs" -sketcher fd -aggs "$aggs"
    example "ingest-aggs$aggs" -ingest -aggs "$aggs"
done
for run in randproj-aggs3 ingest-aggs0 ingest-aggs3; do
    if ! diff "$EVAL_TMP/randproj-aggs0" "$EVAL_TMP/$run"; then
        echo "examples/distributed: the $run summary (>) differs from the direct flat one (<)" >&2
        exit 1
    fi
done
step_done

# Fuzz smokes: ten seconds of coverage-guided input on each hostile decoder
# (NetFlow v5 datagrams off the wire, trace CSVs off disk, peer snapshots an
# aggregator validates and merges, a peer's message stream: the preamble and
# frames of every kind),
# and differentially against a reference on the routing trie every NetFlow
# record is looked up in (a brute-force scan), on the variance histogram's
# storage (the exact window), on delta sketch pulls (a fresh SnapshotInto
# against the column each applied delta rebuilds) and on the NOC model
# build's eigensolver,
# mat.SymEigenLeading's inverse iteration (the all-pairs mat.SymEigen, on
# spectra with forced ties and clusters). Go allows one -fuzz target per
# invocation. Minimizing an input that found new coverage gets ten runs of
# the body, not the default 60 s: the variance-histogram seeds are hundreds
# of bytes, so the default spends the whole smoke minimizing the first such
# input. Each smoke prints its last progress line (elapsed, execs, new
# inputs), and all of its output if it fails.
fuzz_smoke() {
    if ! go test -run 'XXXnone' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 10x "./internal/$2/" > "$EVAL_TMP/fuzz.out" 2>&1; then
        cat "$EVAL_TMP/fuzz.out" >&2
        exit 1
    fi
    grep 'elapsed:' "$EVAL_TMP/fuzz.out" | tail -n 1
}

step "fuzz smoke (NetFlow decoder, 10s)"
fuzz_smoke FuzzDecodeDatagram ingest
step_done

step "fuzz smoke (prefix trie against a brute-force scan, 10s)"
fuzz_smoke FuzzTableLookup flow
step_done

step "fuzz smoke (trace CSV reader, 10s)"
fuzz_smoke FuzzReadCSV traffic
step_done

step "fuzz smoke (peer snapshot merge, 10s)"
fuzz_smoke FuzzMergeColumns sketch
step_done

step "fuzz smoke (message stream decoder, 10s)"
fuzz_smoke FuzzDecodeMessage transport
step_done

step "fuzz smoke (variance histogram against the exact window, 10s)"
fuzz_smoke FuzzHistogramAgainstWindow vh
step_done

step "fuzz smoke (delta pulls against a fresh snapshot, 10s)"
fuzz_smoke FuzzDeltaPull sketch
step_done

step "fuzz smoke (leading eigenvectors against the all-pairs eigensolver, 10s)"
fuzz_smoke FuzzSymEigenLeading mat
step_done

step "bench smoke (1 iteration per benchmark)"
go test . ./internal/... -run 'XXXnone' -bench . -benchtime 1x > /dev/null
step_done

echo "ci.sh: all checks passed"
