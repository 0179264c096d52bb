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
# storage (the exact window) and on the NOC model build's eigensolver,
# mat.SymEigenLeading's inverse iteration (the all-pairs mat.SymEigen, on
# spectra with forced ties and clusters). Go allows one -fuzz target per
# invocation.
step "fuzz smoke (NetFlow decoder, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzDecodeDatagram$' -fuzztime 10s ./internal/ingest/ > /dev/null
step_done

step "fuzz smoke (prefix trie against a brute-force scan, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzTableLookup$' -fuzztime 10s ./internal/flow/ > /dev/null
step_done

step "fuzz smoke (trace CSV reader, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzReadCSV$' -fuzztime 10s ./internal/traffic/ > /dev/null
step_done

step "fuzz smoke (peer snapshot merge, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzMergeColumns$' -fuzztime 10s ./internal/sketch/ > /dev/null
step_done

step "fuzz smoke (message stream decoder, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzDecodeMessage$' -fuzztime 10s ./internal/transport/ > /dev/null
step_done

step "fuzz smoke (variance histogram against the exact window, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzHistogramAgainstWindow$' -fuzztime 10s ./internal/vh/ > /dev/null
step_done

step "fuzz smoke (leading eigenvectors against the all-pairs eigensolver, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzSymEigenLeading$' -fuzztime 10s ./internal/mat/ > /dev/null
step_done

step "bench smoke (1 iteration per benchmark)"
go test . ./internal/... -run 'XXXnone' -bench . -benchtime 1x > /dev/null
step_done

echo "ci.sh: all checks passed"
